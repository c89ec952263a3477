#ifndef PROXDET_NET_SOCKET_SOCKET_SERVER_H_
#define PROXDET_NET_SOCKET_SOCKET_SERVER_H_

#include "net/socket/udp_net.h"
#include "net/transport.h"

namespace proxdet {
namespace net {

/// The real-socket serving substrate of one transported run: a UdpNet with
/// one event loop per ShardedFrontend shard — shard s's client-facing and
/// mesh sockets are pinned to loop s (AddEndpoint group s), so each
/// partition's wire I/O runs on its own thread, with the mesh carried over
/// loopback sockets between them — plus a small shared pool of loops for
/// the client sockets. Protocol handlers still run on the driver thread
/// only (the NetBackend contract), which is why the whole PR 5 frontend
/// works over real sockets without a single new lock.
class SocketServer {
 public:
  SocketServer(const NetConfig& config, int shard_count);

  NetBackend* backend() { return &net_; }
  UdpNet& net() { return net_; }
  const UdpNet& net() const { return net_; }

  bool ok() const { return net_.ok(); }
  bool idle_timeout_hit() const { return net_.idle_timeout_hit(); }

 private:
  UdpNet net_;
};

}  // namespace net
}  // namespace proxdet

#endif  // PROXDET_NET_SOCKET_SOCKET_SERVER_H_
