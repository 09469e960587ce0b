/**
 * @file
 * Test-only per-branch machine probe for FoldedTraceCollector: every
 * branch outcome the functional machine reports through its scalar
 * branchProbe goes to onBranch(), crypto-filtered by the program's
 * range scan. This is the independent reference the fused branch pass
 * (runFusedBranchPass, a batch probe plus a per-instruction crypto
 * table) is compared against.
 */

#ifndef CASSANDRA_TESTS_BRANCH_PROBE_HH
#define CASSANDRA_TESTS_BRANCH_PROBE_HH

#include <cstdint>

#include "core/branch_trace.hh"
#include "sim/machine.hh"

namespace cassandra::test {

/** Route `machine`'s branch outcomes into `collector`; both must
 * outlive the machine's run. */
inline void
attachBranchProbe(sim::Machine &machine,
                  core::FoldedTraceCollector &collector,
                  bool crypto_only = true)
{
    const ir::Program &prog = machine.program();
    machine.branchProbe = [&collector, &prog, crypto_only](
        uint64_t pc, uint64_t target, const ir::Inst &) {
        if (crypto_only && !prog.isCryptoPc(pc))
            return;
        collector.onBranch(pc, target);
    };
}

} // namespace cassandra::test

#endif // CASSANDRA_TESTS_BRANCH_PROBE_HH
