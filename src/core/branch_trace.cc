#include "core/branch_trace.hh"

namespace cassandra::core {

VanillaTrace
toVanilla(const RawTrace &raw)
{
    VanillaTrace out;
    for (uint64_t target : raw) {
        if (!out.empty() && out.back().target == target)
            out.back().count++;
        else
            out.push_back({target, 1});
    }
    return out;
}

RawTrace
expandVanilla(const VanillaTrace &vanilla)
{
    RawTrace out;
    for (const auto &e : vanilla)
        for (uint64_t i = 0; i < e.count; i++)
            out.push_back(e.target);
    return out;
}

uint64_t
vanillaDynamicCount(const VanillaTrace &vanilla)
{
    uint64_t n = 0;
    for (const auto &e : vanilla)
        n += e.count;
    return n;
}

TraceCollector::TraceCollector(sim::Machine &machine, bool crypto_only)
{
    const ir::Program &prog = machine.program();
    machine.branchProbe = [this, &prog, crypto_only](
        uint64_t pc, uint64_t target, const ir::Inst &) {
        if (crypto_only && !prog.isCryptoPc(pc))
            return;
        raw_[pc].push_back(target);
    };
}

std::map<uint64_t, VanillaTrace>
TraceCollector::vanilla() const
{
    std::map<uint64_t, VanillaTrace> out;
    for (const auto &[pc, raw] : raw_)
        out.emplace(pc, toVanilla(raw));
    return out;
}

// ---------------------------------------------------------------------
// FoldedTrace
// ---------------------------------------------------------------------

void
FoldedTrace::append(uint64_t target)
{
    dynCount_++;
    if (runCount_ && target == runTarget_) {
        runCount_++;
        return;
    }
    if (runCount_)
        commitElement({runTarget_, runCount_});
    runTarget_ = target;
    runCount_ = 1;
}

void
FoldedTrace::finish()
{
    if (runCount_) {
        commitElement({runTarget_, runCount_});
        runCount_ = 0;
    }
    finished_ = true;
}

void
FoldedTrace::commitElement(const RunElement &e)
{
    logicalElems_++;
    if (capped_)
        return;

    if (matching_) {
        if (e == active_.pattern[activePos_]) {
            if (++activePos_ == active_.pattern.size()) {
                activePos_ = 0;
                active_.repeats++;
            }
            return;
        }
        // Mismatch: freeze the chunk at its current partial prefix and
        // start a fresh flat buffer with the diverging element.
        active_.partial = activePos_;
        chunks_.push_back(std::move(active_));
        active_ = {};
        activePos_ = 0;
        matching_ = false;
        nextFoldAttempt_ = kFoldBase;
    }

    open_.push_back(e);
    storedElems_++;
    if (storedElems_ > kMaxHeldElements) {
        capped_ = true;
        chunks_ = {};
        active_ = {};
        open_ = {};
        matching_ = false;
        activePos_ = 0;
        storedElems_ = 0;
        return;
    }
    if (open_.size() >= nextFoldAttempt_)
        tryFold();
}

void
FoldedTrace::tryFold()
{
    // Smallest period of the committed buffer via the KMP failure
    // function (p = L - border(L); the period property s[i] == s[i+p]
    // implies s[i] == s[i mod p], so a non-dividing period still folds
    // with a partial prefix).
    const size_t L = open_.size();
    std::vector<size_t> fail(L + 1, 0);
    size_t k = 0;
    for (size_t i = 1; i < L; i++) {
        while (k && !(open_[i] == open_[k]))
            k = fail[k];
        if (open_[i] == open_[k])
            k++;
        fail[i + 1] = k;
    }
    const size_t p = L - fail[L];
    if (2 * p > L) {
        // Not periodic (yet): retry when the buffer doubles.
        nextFoldAttempt_ *= 2;
        return;
    }
    active_.pattern.assign(open_.begin(),
                           open_.begin() + static_cast<long>(p));
    active_.repeats = L / p;
    active_.partial = 0;
    activePos_ = L % p;
    matching_ = true;
    storedElems_ -= L - p;
    open_ = {};
    nextFoldAttempt_ = kFoldBase;
}

uint64_t
FoldedTrace::frontTarget() const
{
    if (!chunks_.empty())
        return chunks_.front().pattern.front().target;
    if (matching_)
        return active_.pattern.front().target;
    if (!open_.empty())
        return open_.front().target;
    return runTarget_;
}

uint64_t
FoldedTrace::heldBytes() const
{
    return storedElems_ * sizeof(RunElement) +
           chunks_.size() * sizeof(Chunk) + sizeof(FoldedTrace);
}

bool
FoldedTrace::sameAs(const FoldedTrace &o) const
{
    // Folding is a deterministic function of the committed-element
    // sequence, so structural equality is logical equality.
    if (capped_ || o.capped_)
        return false;
    return logicalElems_ == o.logicalElems_ && dynCount_ == o.dynCount_ &&
           matching_ == o.matching_ && activePos_ == o.activePos_ &&
           active_.repeats == o.active_.repeats &&
           active_.pattern == o.active_.pattern && chunks_ == o.chunks_ &&
           open_ == o.open_;
}

const VanillaTrace *
FoldedTrace::purePeriod() const
{
    if (!capped_ && chunks_.empty() && matching_ && activePos_ == 0 &&
        open_.empty() && !active_.pattern.empty())
        return &active_.pattern;
    return nullptr;
}

VanillaTrace
FoldedTrace::expand() const
{
    VanillaTrace out;
    out.reserve(logicalElems_);
    auto emitChunk = [&out](const Chunk &c, size_t partial) {
        for (uint64_t r = 0; r < c.repeats; r++)
            out.insert(out.end(), c.pattern.begin(), c.pattern.end());
        out.insert(out.end(), c.pattern.begin(),
                   c.pattern.begin() + static_cast<long>(partial));
    };
    for (const Chunk &c : chunks_)
        emitChunk(c, c.partial);
    if (matching_)
        emitChunk(active_, activePos_);
    out.insert(out.end(), open_.begin(), open_.end());
    return out;
}

// ---------------------------------------------------------------------
// FoldedTraceCollector
// ---------------------------------------------------------------------

void
FoldedTraceCollector::finish()
{
    for (auto &[pc, t] : traces_) {
        uint64_t before = t.heldBytes();
        t.finish();
        held_ += t.heldBytes() - before;
    }
    if (held_ > peak_)
        peak_ = held_;
}

} // namespace cassandra::core
