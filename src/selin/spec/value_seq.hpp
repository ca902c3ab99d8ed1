// Contiguous value storage shared by the container-shaped sequential specs
// (queue, stack, set, priority queue).
//
// Closure expansion clones, steps and fingerprints a SeqState for every
// candidate linearization and recycles discarded states through
// lincheck::StatePool.  Keeping a state's values in one std::vector makes a
// warm assign_from a copy into retained capacity and keeps step off the
// allocator once the pooled vectors have grown to the working size;
// node-based containers (std::set, std::deque) allocate and free on every
// insert and erase.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "selin/util/hash.hpp"
#include "selin/util/types.hpp"

namespace selin::spec_detail {

/// Canonical encoding of a tagged value sequence: "<tag>:v0:v1:...".
inline std::string encode_values(char tag, std::span<const Value> values) {
  std::ostringstream os;
  os << tag;
  for (Value v : values) os << ":" << v;
  return os.str();
}

/// Fingerprint of the same sequence: fph::Hasher seeded with the tag.
inline uint64_t fingerprint_values(char tag, std::span<const Value> values) {
  fph::Hasher h(tag);
  for (Value v : values) h.i64(v);
  return h.done();
}

/// Ascending sorted values: the set state (unique) and the priority-queue
/// state (duplicates kept).  Insert and erase shift the tail in place — O(n),
/// the same order as the copy and fingerprint every candidate already pays.
class SortedValues {
 public:
  bool contains(Value v) const {
    return std::binary_search(v_.begin(), v_.end(), v);
  }

  /// Inserts `v`, unless `unique` and `v` is already present; true iff
  /// inserted.
  bool insert(Value v, bool unique) {
    auto it = std::lower_bound(v_.begin(), v_.end(), v);
    if (unique && it != v_.end() && *it == v) return false;
    v_.insert(it, v);
    return true;
  }

  /// Removes one copy of `v`; true iff one was present.
  bool erase(Value v) {
    auto it = std::lower_bound(v_.begin(), v_.end(), v);
    if (it == v_.end() || *it != v) return false;
    v_.erase(it);
    return true;
  }

  bool empty() const { return v_.empty(); }

  /// Removes and returns the smallest value; the state must be non-empty.
  Value pop_min() {
    const Value v = v_.front();
    v_.erase(v_.begin());
    return v;
  }

  std::span<const Value> values() const { return v_; }

 private:
  std::vector<Value> v_;
};

}  // namespace selin::spec_detail
