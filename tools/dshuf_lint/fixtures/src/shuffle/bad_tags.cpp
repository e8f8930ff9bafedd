// Fixture: exchange traffic on raw tag literals instead of the per-epoch
// helpers from shuffle/exchange_tags.hpp. Never compiled.
#include "comm/comm.hpp"

namespace dshuf::shuffle {

void raw_tag_exchange(comm::Communicator& comm) {
  comm.send(0, 7, {});                // raw literal collides across epochs
  auto m = comm.recv(comm::kAnySource, 7);
  auto stray = comm.poll(0, 7);
}

}  // namespace dshuf::shuffle
