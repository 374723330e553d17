/* Process CPU time: the CPU time of every thread of the process, in
   nanoseconds. With paravirtual steal accounting (Linux
   CONFIG_PARAVIRT_TIME_ACCOUNTING) time the hypervisor gave to another
   guest is not charged to the process, unlike wall time. */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t servebench_cpu_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value servebench_cpu_ns(value unit)
{
  return caml_copy_int64(servebench_cpu_ns_unboxed(unit));
}
