// Package graph provides the topology substrate for running the
// consensus dynamics beyond the complete graph — the paper's §2.5 open
// problem ("analyze 3-Majority or 2-Choices with many opinions on
// graphs other than the complete graph"). It defines a minimal Graph
// interface sufficient for pull-based dynamics (sampling a uniformly
// random neighbor), a set of standard topologies, and an agent-based
// synchronous engine that runs any sim.Rule on any Graph, each draw a
// uniformly random neighbour from the vertex's shard stream.
//
// The contract above is owned by DESIGN.md §"The unified Experiment
// API".
package graph
