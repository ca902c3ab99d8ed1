// FIFO queue sequential specification (Figure 4 and Theorem 5.1 object).
// Enqueue(v) -> true; Dequeue() -> head value, or `empty`.
#include <span>
#include <vector>

#include "selin/spec/spec.hpp"
#include "selin/spec/value_seq.hpp"

namespace selin {
namespace {

// items_[head_, size) is the queue, front first.  Dequeue advances head_;
// the consumed prefix is dropped once it passes half the buffer, so the
// buffer stays within twice the live length at amortized O(1) per dequeue.
class QueueState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    auto s = std::make_unique<QueueState>();
    s->assign_from(*this);
    return s;
  }

  Value step(Method m, Value arg) override {
    switch (m) {
      case Method::kEnqueue:
        items_.push_back(arg);
        return kTrue;
      case Method::kDequeue: {
        if (head_ == items_.size()) return kEmpty;
        const Value v = items_[head_++];
        if (2 * head_ > items_.size()) {
          items_.erase(items_.begin(), items_.begin() + head_);
          head_ = 0;
        }
        return v;
      }
      default:
        return kError;  // foreign method: never matches an observed response
    }
  }

  std::string encode() const override {
    return spec_detail::encode_values('Q', live());
  }

  uint64_t fingerprint() const override {
    return spec_detail::fingerprint_values('Q', live());
  }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const QueueState*>(&src);
    if (o == nullptr) return false;
    if (o != this) {
      const std::span<const Value> v = o->live();
      items_.assign(v.begin(), v.end());
      head_ = 0;
    }
    return true;
  }

 private:
  std::span<const Value> live() const {
    return std::span<const Value>(items_).subspan(head_);
  }

  std::vector<Value> items_;
  size_t head_ = 0;
};

class QueueSpec final : public SeqSpec {
 public:
  const char* name() const override { return "queue"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<QueueState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_queue_spec() {
  return std::make_unique<QueueSpec>();
}

}  // namespace selin
