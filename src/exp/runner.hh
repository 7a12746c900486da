/**
 * @file
 * Drives a parsed ExperimentSpec end to end: instantiates the nodes,
 * OS containers, cluster simulator, and scheduler policies the spec
 * describes and prints the paper-style report. This is the one driver
 * of the paper experiments that a conf `kind` expresses; the quick
 * reports of the paper confs are pinned byte for byte by the goldens
 * under tests/goldens/.
 */

#ifndef XISA_EXP_RUNNER_HH
#define XISA_EXP_RUNNER_HH

#include "exp/options.hh"
#include "exp/spec.hh"
#include "traffic/traffic.hh"

namespace xisa::exp {

/** Run one experiment; returns a process exit status. */
int runExperiment(const ExperimentSpec &spec, const Options &opts);

/**
 * Expand a serving spec's [failures] plan onto `cfg`: the single
 * place where the plan's duration FRACTIONS become sim-clock seconds
 * (`t = fraction * durationSeconds`; FaultConfig's unit note points
 * here). Builds the node -> rack map from [topology], one NodeCrash
 * per member of each failing domain (tor/pdu/agg lose the machines;
 * a partitioned rack keeps running but is unreachable, which serving
 * cannot distinguish from down), and one BrownoutWindow per plan
 * entry with the spec's shed_deciles. No-op when the plan is empty,
 * so failure-free specs keep their schedules byte-identical.
 */
void applyFailures(const ExperimentSpec &spec, double durationSeconds,
                   traffic::ServingConfig &cfg);

} // namespace xisa::exp

#endif // XISA_EXP_RUNNER_HH
