/* getrusage(2) for the benchmark: OCaml's Unix library has no binding. */

#include <sys/resource.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

/* The largest resident set, in kB, of any descendant the calling
   process has reaped (directly, or through children that reaped their
   own).  Linux reports ru_maxrss in kB. */
CAMLprim value ilvbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0)
    caml_failwith("getrusage(RUSAGE_CHILDREN) failed");
  return Val_long(ru.ru_maxrss);
}
