// Keeps every CPU of the machine busy at the lowest scheduling priority
// while a benchmark run measures, so that no vCPU halts when it goes idle.
// On a virtual machine, waking a halted vCPU takes the host's scheduler,
// which under host load costs up to milliseconds per wake-up -- more than
// the sub-millisecond serve latencies and the thread-pool hand-offs the
// benchmark measures. This is the user-space counterpart of disabling deep
// idle states for latency measurements. The spinners run SCHED_IDLE, so
// any runnable thread of the program preempts them at once.
//
//   paperbench_poll < pipe     (exits when its standard input closes)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <thread>
#include <vector>

int main() {
  const unsigned n = std::thread::hardware_concurrency();
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < n; ++i)
    spinners.emplace_back([] {
      sched_param p{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &p) != 0) return;
      for (;;) __builtin_ia32_pause();  // eases a hyper-threaded sibling
    });
  char buf[64];
  while (read(STDIN_FILENO, buf, sizeof buf) > 0) {
  }
  std::fflush(stdout);
  _exit(0);  // the spinners never return; end the process without joining
}
