/// \file
/// Process-level wrappers around serve::Server and serve::Client: flag
/// parsing, SIGINT/SIGTERM-driven graceful drain, and the one-shot
/// request path. Shared by the standalone `chrysalis_served` binary and
/// the `chrysalis_cli serve` / `chrysalis_cli call` subcommands so both
/// spellings behave identically.

#ifndef CHRYSALIS_SERVE_DAEMON_HPP
#define CHRYSALIS_SERVE_DAEMON_HPP

#include <string>

#include "serve/server.hpp"

namespace chrysalis::serve {

/// `serve` front-end configuration.
struct ServeCliOptions {
    ServerOptions server;
    std::string metrics_out;  ///< metrics JSON report path ("" = none)
    std::string trace_out;    ///< Chrome trace path ("" = none)
};

/// Runs the daemon: start the server, announce the bound address on
/// stdout ("chrysalis_served listening on HOST:PORT"), block until
/// SIGINT or SIGTERM, drain, report totals and write the optional
/// metrics/trace files. Flags are parsed from argv[first..); an unknown
/// flag is a usage error: the usage goes to stderr and it returns 2.
/// Returns the process exit code.
int run_serve_cli(int argc, char** argv, int first);

/// Runs one request against a server and prints the raw reply payload
/// on stdout. Recognized flags: --host, --port (required), --type
/// (required), --timeout; every other `--key value` becomes a request
/// field, so only a non-flag argument is a usage error (exit code 2).
/// Exit code 0 when the reply says "ok":1, 1 otherwise.
int run_call_cli(int argc, char** argv, int first);

}  // namespace chrysalis::serve

#endif  // CHRYSALIS_SERVE_DAEMON_HPP
