// Anchor translation unit: instantiates the SPSC templates once so that
// header breakage is caught when building the library itself, not first by
// a downstream target.
#include "spsc/doorbell.hpp"
#include "spsc/dynamic_queue.hpp"
#include "spsc/ring.hpp"
#include "spsc/ring_set.hpp"

namespace ramr::spsc {

template class Ring<int>;
template class DynamicQueue<int>;
template class RingSet<int>;

}  // namespace ramr::spsc
