// Min priority queue sequential specification (Theorem 5.1 object).
// PqInsert(v) -> true; PqExtractMin() -> smallest value, or `empty`.
#include "selin/spec/spec.hpp"
#include "selin/spec/value_seq.hpp"

namespace selin {
namespace {

class PqState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    return std::make_unique<PqState>(*this);
  }

  Value step(Method m, Value arg) override {
    switch (m) {
      case Method::kPqInsert:
        items_.insert(arg, /*unique=*/false);
        return kTrue;
      case Method::kPqExtractMin:
        return items_.empty() ? kEmpty : items_.pop_min();
      default:
        return kError;
    }
  }

  std::string encode() const override {
    return spec_detail::encode_values('P', items_.values());
  }

  uint64_t fingerprint() const override {
    return spec_detail::fingerprint_values('P', items_.values());
  }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const PqState*>(&src);
    if (o == nullptr) return false;
    items_ = o->items_;
    return true;
  }

 private:
  spec_detail::SortedValues items_;
};

class PqSpec final : public SeqSpec {
 public:
  const char* name() const override { return "pqueue"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<PqState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_pqueue_spec() {
  return std::make_unique<PqSpec>();
}

}  // namespace selin
