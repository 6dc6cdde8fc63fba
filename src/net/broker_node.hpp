// psc_brokerd's body: one broker as a real process. The broker runs the
// same routing::BrokerRuntime the simulator runs per broker, over a
// TcpTransport instead of SimTransport, so the delivered sets a TCP cluster
// produces are gated against the same FlatOracle ground truth the sim's
// differential suites use. What remains here is process glue: client-op
// cascade roots, the ready and shutdown events, and the command line.
//
// Scope (what the TCP op vocabulary covers): subscribe / unsubscribe /
// publish client ops and EOF-triggered peer-death purges. TTL expiries are
// accepted on the wire (the announcement codec carries them) and armed on
// the transport's wall clock, but cluster traces run with TTLs disabled —
// wall-clock time is not the sim clock, so expiry instants would not be
// comparable. With no client registry, every re-announced subscription is
// live and carries no expiry. Membership repair beyond crash-purge (heal,
// replace) stays a sim-side concern.
//
// Delivered-set plumbing: the sim collects per-publication matches in the
// publish call's sink; a process cannot. Instead every local match is
// added to the transport's active cascade record, and the record tree's
// kDone aggregation returns the full delivered set to the op's root — the
// supervisor gets it in the kOpResult, byte-comparable to the oracle.
#pragma once

namespace psc::net {

/// Entry point for the psc_brokerd executable (tools/brokerd_main.cpp):
/// parses --id / --listen-fd / --seed / --policy / --neighbors / --ports,
/// dials its peers and serves until the supervisor disconnects or sends
/// kShutdown. Returns the process exit code.
int run_brokerd(int argc, const char* const* argv);

}  // namespace psc::net
