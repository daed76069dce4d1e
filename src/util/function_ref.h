// Non-owning callable reference (LLVM-style function_ref).
//
// std::function's type erasure heap-allocates when a lambda's captures
// outgrow the small-buffer optimisation (~2 pointers in libstdc++), which
// disqualifies it from the zero-allocation read path: a ServeInto() call builds
// a capture-rich callback per KV batch. FunctionRef erases through a plain
// (object pointer, trampoline pointer) pair — never owns, never allocates,
// trivially copyable. The referenced callable must outlive the FunctionRef,
// which makes it suitable only for "call down the stack" parameters
// (exactly how KvStore::View/MultiView use it).
#pragma once

#include <type_traits>
#include <utility>

namespace helios::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename Callable,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<Callable>, FunctionRef> &&
                std::is_invocable_r_v<R, Callable&, Args...>>>
  FunctionRef(Callable&& callable)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(callable)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<Callable>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace helios::util
