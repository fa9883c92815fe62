// The coroutine type of simulated-core execution.
//
// `Task` is a lazy, awaitable coroutine with symmetric-transfer
// continuation — application code composes freely (a barrier wait can
// co_await loads, stores and RMWs). A kernel's own Task is its core's root
// coroutine: the Program makes it in the core's cycle-0 event, resumes it
// there, and owns it until the Program is destroyed. A finished root stays
// suspended at its final point (done()) with no continuation to resume.
// An exception a kernel throws (a validation probe raised while it runs)
// leaves its frames suspended and propagates to whoever resumed them, out
// of Program::run; destroying the root Task destroys every frame it awaits.
#pragma once

#include <coroutine>
#include <utility>

namespace atacsim::core {

/// Lazy coroutine returning nothing; starts on first co_await or resume().
class Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    auto final_suspend() noexcept {
      struct FinalAwaiter {
        bool await_ready() noexcept { return false; }
        std::coroutine_handle<> await_suspend(
            std::coroutine_handle<promise_type> h) noexcept {
          const auto c = h.promise().continuation;
          return c ? c : std::noop_coroutine();
        }
        void await_resume() noexcept {}
      };
      return FinalAwaiter{};
    }
    void return_void() {}
    void unhandled_exception() { throw; }
  };

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  /// Starts a root Task, one that nothing awaits.
  void resume() { h_.resume(); }
  bool done() const { return h_.done(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() const noexcept {}

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace atacsim::core
