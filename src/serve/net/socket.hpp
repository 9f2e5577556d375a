// socket.hpp — endpoint parsing plus listen/connect for the serve daemon.
//
// One endpoint grammar everywhere (daemon flag, client --connect, tests):
//
//   HOST:PORT        TCP (numeric host or name; PORT 0 = ephemeral)
//   unix:PATH        Unix-domain stream socket at PATH
//
// Listening on port 0 picks an ephemeral port; bound_endpoint() reports
// the actual address so tests and the daemon's stdout can hand it to
// clients.  All failures throw ConfigError (bad spec) or WireError
// (socket-layer failure) naming the endpoint.
//
// Both ends of a TCP connection set TCP_NODELAY: a request or answer is
// one small frame written as it is ready, and Nagle's algorithm would hold
// a frame back until the previous one is acknowledged.
#pragma once

#include <string>

namespace liquid3d {

struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;  ///< TCP only
  std::string port;  ///< TCP only (numeric string)
  std::string path;  ///< Unix only
};

/// Parses `HOST:PORT` or `unix:PATH`; throws ConfigError on a malformed
/// spec (`what` names the flag for the message).
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec,
                                      const std::string& what);

/// Renders an endpoint back to its spec form.
[[nodiscard]] std::string to_string(const Endpoint& ep);

/// Creates a listening socket (SO_REUSEADDR for TCP; the Unix path is
/// unlinked first so a stale socket file does not block the bind).
[[nodiscard]] int listen_socket(const Endpoint& ep, int backlog = 64);

/// The endpoint a listening socket actually bound (resolves port 0).
[[nodiscard]] Endpoint bound_endpoint(int listen_fd, const Endpoint& requested);

/// Connects to an endpoint; throws WireError{kDisconnected} on refusal.
/// TCP connections get TCP_NODELAY.
[[nodiscard]] int connect_socket(const Endpoint& ep);

/// Accepts one connection (-1 when accept fails; errno says why).  TCP
/// connections get TCP_NODELAY.
[[nodiscard]] int accept_socket(int listen_fd);

}  // namespace liquid3d
