// Coroutine task types for simulated-core execution.
//
// `Task<T>` is a lazy, awaitable coroutine with symmetric-transfer
// continuation — application code composes freely (a barrier wait can
// co_await loads, stores and RMWs). `RootTask` is the fire-and-forget
// top-level frame the Program resumes once per core from the event queue.
// An exception a kernel throws (a validation probe raised while it runs)
// leaves its frames suspended and propagates to whoever resumed them, out
// of Program::run; the Program destroys the frames.
#pragma once

#include <coroutine>
#include <type_traits>
#include <utility>

namespace atacsim::core {

template <typename T = void>
class Task;

namespace detail {

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <typename P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
    auto c = h.promise().continuation;
    return c ? c : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

struct TaskPromiseBase {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { throw; }
};

/// What a Task's promise keeps of the coroutine's result.
template <typename T>
struct TaskResult : TaskPromiseBase {
  T value{};
  void return_value(T v) { value = std::move(v); }
};
template <>
struct TaskResult<void> : TaskPromiseBase {
  void return_void() {}
};

}  // namespace detail

/// Lazy coroutine returning T; starts on first co_await.
template <typename T>
class Task {
 public:
  struct promise_type : detail::TaskResult<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) return std::move(h_.promise().value);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// Fire-and-forget top-level frame: created suspended; the Program resumes
/// it from the event queue; it destroys itself on completion.
struct RootTask {
  struct promise_type {
    RootTask get_return_object() {
      return RootTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { throw; }
  };
  std::coroutine_handle<promise_type> handle;
};

}  // namespace atacsim::core
