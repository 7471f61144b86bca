/* Heap allocation counter, loaded with LD_PRELOAD.
 *
 * Counts every call to malloc, calloc, realloc, posix_memalign,
 * aligned_alloc and memalign in the process (operator new reaches malloc)
 * and prints "alloc_count <n>" on standard error when the process exits.
 * Each call is forwarded to glibc's own allocator. Built and used by
 * scripts/allocs.py.
 */
#include <stdatomic.h>
#include <stddef.h>
#include <stdio.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* ptr, size_t size);
extern void* __libc_memalign(size_t alignment, size_t size);

static atomic_ulong allocations;

static void counted(void) { atomic_fetch_add_explicit(&allocations, 1, memory_order_relaxed); }

void* malloc(size_t size) {
  counted();
  return __libc_malloc(size);
}

void* calloc(size_t count, size_t size) {
  counted();
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, size_t size) {
  counted();
  return __libc_realloc(ptr, size);
}

void* memalign(size_t alignment, size_t size) {
  counted();
  return __libc_memalign(alignment, size);
}

void* aligned_alloc(size_t alignment, size_t size) {
  counted();
  return __libc_memalign(alignment, size);
}

int posix_memalign(void** out, size_t alignment, size_t size) {
  counted();
  void* p = __libc_memalign(alignment, size);
  if (p == NULL && size != 0) return 12; /* ENOMEM */
  *out = p;
  return 0;
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_count %lu\n", (unsigned long)atomic_load(&allocations));
}
