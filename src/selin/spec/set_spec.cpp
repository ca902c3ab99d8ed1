// Integer set sequential specification (Theorem 5.1 object).
// Insert(v) -> true iff v was absent; Remove(v) -> true iff v was present;
// Contains(v) -> membership.
#include "selin/spec/spec.hpp"
#include "selin/spec/value_seq.hpp"

namespace selin {
namespace {

class SetState final : public SeqState {
 public:
  std::unique_ptr<SeqState> clone() const override {
    return std::make_unique<SetState>(*this);
  }

  Value step(Method m, Value arg) override {
    switch (m) {
      case Method::kInsert:
        return items_.insert(arg, /*unique=*/true) ? kTrue : kFalse;
      case Method::kRemove:
        return items_.erase(arg) ? kTrue : kFalse;
      case Method::kContains:
        return items_.contains(arg) ? kTrue : kFalse;
      default:
        return kError;
    }
  }

  std::string encode() const override {
    return spec_detail::encode_values('T', items_.values());
  }

  uint64_t fingerprint() const override {
    return spec_detail::fingerprint_values('T', items_.values());
  }

  bool assign_from(const SeqState& src) override {
    auto* o = dynamic_cast<const SetState*>(&src);
    if (o == nullptr) return false;
    items_ = o->items_;
    return true;
  }

 private:
  spec_detail::SortedValues items_;
};

class SetSpec final : public SeqSpec {
 public:
  const char* name() const override { return "set"; }
  std::unique_ptr<SeqState> initial() const override {
    return std::make_unique<SetState>();
  }
};

}  // namespace

std::unique_ptr<SeqSpec> make_set_spec() { return std::make_unique<SetSpec>(); }

}  // namespace selin
