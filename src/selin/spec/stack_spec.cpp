// LIFO stack sequential specification (Figures 1 and 3 of the paper).
// Push(v) -> true; Pop() -> top value, or `empty`.
#include <vector>

#include "selin/spec/spec.hpp"
#include "selin/spec/value_seq.hpp"

namespace selin {
namespace {

class StackState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    return std::make_unique<StackState>(*this);
  }

  Value step(Method m, Value arg) override {
    switch (m) {
      case Method::kPush:
        items_.push_back(arg);
        return kTrue;
      case Method::kPop: {
        if (items_.empty()) return kEmpty;
        Value v = items_.back();
        items_.pop_back();
        return v;
      }
      default:
        return kError;
    }
  }

  std::string encode() const override {
    return spec_detail::encode_values('S', items_);
  }

  uint64_t fingerprint() const override {
    return spec_detail::fingerprint_values('S', items_);
  }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const StackState*>(&src);
    if (o == nullptr) return false;
    items_ = o->items_;
    return true;
  }

 private:
  std::vector<Value> items_;
};

class StackSpec final : public SeqSpec {
 public:
  const char* name() const override { return "stack"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<StackState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_stack_spec() {
  return std::make_unique<StackSpec>();
}

}  // namespace selin
