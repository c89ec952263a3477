#include "net/socket/socket_server.h"

#include <algorithm>

namespace proxdet {
namespace net {

namespace {

UdpNetConfig MakeUdpConfig(const NetConfig& config, int shard_count) {
  UdpNetConfig c;
  c.shard_loops = std::max(1, shard_count);
  c.client_loops = std::max(1, config.udp_client_loops);
  c.base_port = config.udp_port;
  c.drop_rate = config.udp_drop_rate;
  c.dup_rate = config.udp_dup_rate;
  c.seed = config.seed;
  c.idle_timeout_s = config.udp_idle_timeout_s;
  return c;
}

}  // namespace

SocketServer::SocketServer(const NetConfig& config, int shard_count)
    : net_(MakeUdpConfig(config, shard_count)) {}

}  // namespace net
}  // namespace proxdet
