/**
 * @file
 * A non-owning reference to a callable, for hot-path callbacks.
 *
 * std::function owns a type-erased copy of its target; calling it
 * is an indirect call through the erased manager, and building one
 * from a large capture allocates.  A FunctionRef owns nothing: it is
 * two words (target + thunk) and is meant to be passed by value down
 * a call chain whose callee does not outlive the callable — exactly
 * the arbiter's per-cycle back-pressure test.
 *
 * Lifetime rule: a FunctionRef bound to a callable *object* refers
 * to that object, so it must not outlive it.  Captureless lambdas
 * and plain functions are stored as a function pointer instead, so
 * `const FunctionRef<...> f = [](...) { ... };` is safe.
 */

#ifndef DAMQ_COMMON_FUNCTION_REF_HH
#define DAMQ_COMMON_FUNCTION_REF_HH

#include <memory>
#include <type_traits>
#include <utility>

namespace damq {

template <typename Signature>
class FunctionRef;

/** Non-owning callable reference; see the file comment. */
template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
    using Plain = R (*)(Args...);

    union Target
    {
        const void *object;
        Plain plain;
    };

  public:
    /** Bind @p f: by function pointer when it converts to one
     *  (captureless lambdas, functions), by address otherwise. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f) // NOLINT: implicit by design, like std::function
    {
        if constexpr (std::is_convertible_v<F, Plain>) {
            target.plain = static_cast<Plain>(f);
            thunk = [](Target t, Args... args) -> R {
                return t.plain(std::forward<Args>(args)...);
            };
        } else {
            target.object = std::addressof(f);
            thunk = [](Target t, Args... args) -> R {
                using Object = std::remove_reference_t<F>;
                return (*static_cast<Object *>(
                    const_cast<void *>(t.object)))(
                    std::forward<Args>(args)...);
            };
        }
    }

    R operator()(Args... args) const
    {
        return thunk(target, std::forward<Args>(args)...);
    }

  private:
    Target target;
    R (*thunk)(Target, Args...);
};

} // namespace damq

#endif // DAMQ_COMMON_FUNCTION_REF_HH
