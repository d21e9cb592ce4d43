/* CPU time of the calling thread, in nanoseconds. Unlike the monotonic
   clock it does not advance while the thread is descheduled, so a host
   that preempts or steals the CPU does not lengthen the measured op. */

#include <time.h>
#include <caml/mlvalues.h>

value hostbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
