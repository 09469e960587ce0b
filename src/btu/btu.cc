#include "btu/btu.hh"

#include <cassert>
#include <stdexcept>
#include <string>

namespace cassandra::btu {

using core::BranchTrace;
using core::TraceLimits;

Btu::Btu(const core::TraceImage &image, BtuParams params)
    : params_(params)
{
    entries_.resize(params_.sets * params_.ways);
    const auto &hints = image.hints();
    if (hints.empty())
        return;
    base_ = hints.begin()->first;
    branchIndex_.assign(
        (hints.rbegin()->first - base_) / ir::instBytes + 1, 0);
    branches_.reserve(hints.size());
    for (const auto &[pc, hint] : hints) {
        if ((pc - base_) % ir::instBytes != 0)
            throw std::invalid_argument(
                "trace image branch pc " + std::to_string(pc) +
                " is not instruction-aligned");
        Branch b;
        b.hint = &hint;
        const BranchTrace *trace =
            hint.singleTarget ? nullptr : image.trace(pc);
        if (trace && trace->hasTrace() && !trace->elements.empty())
            b.trace = trace;
        branches_.push_back(b);
        branchIndex_[(pc - base_) / ir::instBytes] =
            static_cast<uint32_t>(branches_.size());
    }
}

Btu::Branch *
Btu::branchAt(uint64_t pc)
{
    // Below base_ the offset wraps to a huge value and fails the
    // range check like any pc above the highest analyzed branch.
    const uint64_t off = pc - base_;
    if (off % ir::instBytes != 0 ||
        off / ir::instBytes >= branchIndex_.size())
        return nullptr;
    const uint32_t b = branchIndex_[off / ir::instBytes];
    return b ? &branches_[b - 1] : nullptr;
}

Btu::Cursor
Btu::initialCursor(const BranchTrace &trace) const
{
    Cursor cur;
    cur.elemIdx = 0;
    const auto &el = trace.elements[0];
    cur.passRem = el.traceCounter;
    cur.patRem = el.patternCounter;
    return cur;
}

uint64_t
Btu::targetAt(const BranchTrace &trace, const Cursor &cur) const
{
    const auto &el = trace.elements[cur.elemIdx % trace.elements.size()];
    // Position within the pattern pass is derived from how much of the
    // pattern counter has been consumed (this is what lets the 60-bit
    // checkpoint element rebuild the exact position).
    uint32_t consumed = el.patternCounter - cur.patRem;
    for (uint8_t i = 0; i < el.patternSize; i++) {
        const auto &pe = trace.patternSet[el.patternIndex + i];
        if (consumed < pe.repetitions)
            return trace.targetOf(pe);
        consumed -= pe.repetitions;
    }
    assert(false && "pattern counter exceeds pattern repetitions");
    return 0;
}

void
Btu::advance(const BranchTrace &trace, Cursor &cur) const
{
    const auto &el = trace.elements[cur.elemIdx % trace.elements.size()];
    cur.patRem--;
    if (cur.patRem > 0)
        return;
    cur.passRem--;
    if (cur.passRem > 0) {
        cur.patRem = el.patternCounter;
        return;
    }
    // Element exhausted; advance to the next trace element. A wrap past
    // the last element is the End-of-Trace restart.
    cur.elemIdx++;
    const auto &next =
        trace.elements[cur.elemIdx % trace.elements.size()];
    cur.passRem = next.traceCounter;
    cur.patRem = next.patternCounter;
}

size_t
Btu::victimFor(uint64_t pc) const
{
    const size_t first = (pc / ir::instBytes) % params_.sets * params_.ways;
    size_t victim = first;
    for (size_t i = first; i < first + params_.ways; i++) {
        if (!entries_[i].valid)
            return i;
        if (entries_[i].lastUse < entries_[victim].lastUse)
            victim = i;
    }
    return victim;
}

void
Btu::evict(Entry &entry)
{
    if (!entry.valid)
        return;
    // CPT write-back: the committed progress is checkpointed so the
    // branch can resume when it reappears (paper §5.3).
    Branch &b = branches_[entry.branch];
    b.checkpoint = entry.commit;
    b.checkpointed = true;
    b.slot = notResident;
    entry.valid = false;
    stats_.evictions++;
}

Btu::LookupResult
Btu::fetchLookup(uint64_t pc)
{
    stats_.lookups++;
    Branch *b = branchAt(pc);
    if (b && b->hint->singleTarget) {
        // No BTU resources are used for single-target branches.
        stats_.singleTargetHits++;
        return {Outcome::SingleTarget, b->hint->targetPc};
    }
    if (!b || !b->trace) {
        // Unanalyzed, input-dependent or rejected: redirect fetch only
        // once the branch direction is resolved (paper footnote 4).
        stats_.stallResolve++;
        return {Outcome::StallResolve, 0};
    }
    const BranchTrace *trace = b->trace;

    bool filled = false;
    if (b->slot == notResident) {
        stats_.misses++;
        const size_t slot_index = victimFor(pc);
        Entry &slot = entries_[slot_index];
        evict(slot);
        slot.valid = true;
        slot.pc = pc;
        slot.branch = static_cast<uint32_t>(b - branches_.data());
        if (b->checkpointed) {
            slot.commit = b->checkpoint;
            stats_.checkpointRestores++;
        } else {
            slot.commit = initialCursor(*trace);
        }
        slot.fetch = slot.commit;
        b->slot = static_cast<uint32_t>(slot_index);
        filled = true;
    } else {
        stats_.hits++;
    }
    Entry *entry = &entries_[b->slot];
    entry->lastUse = ++useClock_;

    // Window limit: if the fetch cursor has run a full TRC entry ahead
    // of commit, wait until the head element retires (paper §5.3).
    if (entry->fetch.elemIdx - entry->commit.elemIdx >=
        TraceLimits::entryElements) {
        stats_.windowStalls++;
        return {Outcome::WindowStall, 0};
    }

    uint64_t target = targetAt(*trace, entry->fetch);
    advance(*trace, entry->fetch);
    return {filled ? Outcome::MissFill : Outcome::Hit, target};
}

void
Btu::commitBranch(uint64_t pc)
{
    const Branch *b = branchAt(pc);
    if (!b || b->slot == notResident)
        return; // single-target, stall-resolve or evicted mid-flight
    Entry *entry = &entries_[b->slot];
    stats_.commits++;
    uint64_t elem_before = entry->commit.elemIdx;
    advance(*b->trace, entry->commit);
    if (entry->commit.elemIdx != elem_before) {
        // Head element retired: the TRC entry shifts; long traces
        // prefetch the upcoming elements from the data pages, short
        // traces rotate a refreshed copy of the head (paper §5.3).
        if (!b->trace->shortTrace)
            stats_.prefetches++;
    }
}

void
Btu::rewindFetch(const std::function<uint64_t(uint64_t)> &in_flight_of)
{
    for (Entry &e : entries_) {
        if (!e.valid)
            continue;
        uint64_t ahead = in_flight_of ? in_flight_of(e.pc) : 0;
        Cursor cur = e.commit;
        for (uint64_t i = 0; i < ahead; i++)
            advance(*branches_[e.branch].trace, cur);
        e.fetch = cur;
        stats_.squashRewinds++;
    }
}

void
Btu::flush()
{
    stats_.flushes++;
    for (Entry &e : entries_)
        evict(e);
}

} // namespace cassandra::btu
