/**
 * @file
 * The paper's figures and tables as named report formats.
 *
 * Each reproduction is a committed sweep config under configs/paper/
 * plus one of these reporters, selected by the config's
 * "report": {"format": "<figure>"} (or --format=<figure>):
 *
 *   run_experiment configs/paper/fig7.json             # Figure 7
 *   run_experiment configs/paper/fig7.json --format=json
 *
 * A reporter reads only the finished Experiment — cells for the
 * timing figures, the shared analysis artifacts for Table 1 — and
 * prints the paper-style table. Workloads appear in matrix order
 * (Experiment::workloads); a workload missing a cell the figure needs
 * prints a "(skipped: ...)" row instead of a number, so any sweep can
 * be rendered, and the structured formats (json/csv) still cover
 * every cell.
 */

#ifndef CASSANDRA_CORE_PAPER_FIGURES_HH
#define CASSANDRA_CORE_PAPER_FIGURES_HH

#include "core/experiment.hh"

namespace cassandra::core {

/** Figure 7: Cassandra, Cassandra+STL and SPT cycles normalized to
 * the Unsafe Baseline per crypto workload, with geomeans. */
class Fig7Reporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** Figure 8: ProSpeCT and Cassandra+ProSpeCT overhead over the
 * Unsafe Baseline on the synthetic mixes. */
class Fig8Reporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** Figure 9: per-component power and area of Cassandra relative to
 * the Unsafe Baseline, from activity summed over all cells. */
class Fig9Reporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** Table 1: vanilla vs k-mers trace sizes of the multi-target
 * branches, from the Algorithm 2 results of the run's artifacts (the
 * sweep needs no schemes). */
class Table1Reporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** BTU ablation: Cassandra/baseline cycles over the "fill=N" and
 * "ways=N" configs ("default" is fill 14, 1 set x 16 ways). */
class AblationBtuReporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** §8 Q3: requests/sec per scheme on server/<mix>/<n> rows, and the
 * Cassandra-lite over full Cassandra slowdown on the other rows. */
class Q3Reporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

/** §8 Q4: Cassandra/baseline cycles under the "flush=<period>"
 * configs (periodic BTU flushes). */
class Q4Reporter : public Reporter
{
  public:
    void write(const Experiment &exp, std::ostream &os) const override;
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_PAPER_FIGURES_HH
