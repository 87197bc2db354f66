// Live-heap high-water-mark profiler, loaded with LD_PRELOAD by
// scripts/heap_peak.sh.
//
// Wraps malloc, free, calloc, realloc, posix_memalign, aligned_alloc and
// memalign. Every block is charged to the call stack that allocated it
// (backtrace(), DEPTH frames). Whenever the live total passes the last
// snapshot by STEP bytes, the live bytes of every stack are
// copied aside, so the snapshot taken at the highest peak tells which stacks
// held the heap at its high-water mark (to within one step). At exit the
// snapshot goes to $HEAP_PEAK_RAW as text: a "peak" line, then one "site"
// line per stack, largest first, each followed by "frame <module> <offset>"
// lines that heap_peak.sh symbolizes with addr2line.
//
// Bookkeeping lives outside the profiled heap (mmap), so it does not move
// the numbers it reports. A block the wrappers did not see (allocated before
// they were ready, or by the unwinder itself) is passed through untracked.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#define DEPTH 16
#define STEP (1 << 20)
#define MAX_STACKS (1u << 19)
#define STACK_INDEX_BITS 20

typedef struct {
  uint64_t hash;
  int depth;
  void* frames[DEPTH];
  int64_t live_bytes;
  int64_t live_blocks;
  int64_t peak_bytes;  // at the last snapshot
  int64_t peak_blocks;
} Stack;

typedef struct {
  uintptr_t ptr;  // 0 = empty slot
  uint64_t size;
  uint32_t stack;
} Block;

static void* (*real_malloc)(size_t);
static void (*real_free)(void*);
static void* (*real_calloc)(size_t, size_t);
static void* (*real_realloc)(void*, size_t);
static int (*real_posix_memalign)(void**, size_t, size_t);
static void* (*real_aligned_alloc)(size_t, size_t);
static void* (*real_memalign)(size_t, size_t);

static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static __thread int in_hook __attribute__((tls_model("initial-exec")));
static int ready;

static Stack* stacks;  // stacks[0] collects what overflows the table
static uint32_t num_stacks = 1;
static uint32_t* stack_index;  // open addressing, 0 = empty

static Block* blocks;
static uint64_t block_cap;
static uint64_t block_count;

static int64_t live;
static int64_t peak;
static int64_t snapshot_at;
static uint64_t allocations;

// Served to dlsym before the real allocator is known; never freed.
static char bootstrap[1 << 16];
static size_t bootstrap_used;

static void* Map(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                 -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

static uint64_t Slot(uintptr_t p, uint64_t cap) { return Mix(p) & (cap - 1); }

static void InsertBlock(Block b);

static void GrowBlocks(void) {
  Block* old = blocks;
  const uint64_t old_cap = block_cap;
  block_cap = old_cap ? old_cap * 2 : (1u << 16);
  blocks = Map(block_cap * sizeof(Block));
  block_count = 0;
  for (uint64_t i = 0; i < old_cap; ++i) {
    if (old[i].ptr != 0) {
      InsertBlock(old[i]);
    }
  }
  if (old != NULL) {
    munmap(old, old_cap * sizeof(Block));
  }
}

static void InsertBlock(Block b) {
  if ((block_count + 1) * 2 > block_cap) {
    GrowBlocks();
  }
  uint64_t i = Slot(b.ptr, block_cap);
  while (blocks[i].ptr != 0) {
    i = (i + 1) & (block_cap - 1);
  }
  blocks[i] = b;
  ++block_count;
}

// Removes and returns the block at `ptr`; .ptr is 0 if it is not tracked.
static Block TakeBlock(uintptr_t ptr) {
  Block none = {0, 0, 0};
  if (block_cap == 0) {
    return none;
  }
  uint64_t i = Slot(ptr, block_cap);
  while (blocks[i].ptr != ptr) {
    if (blocks[i].ptr == 0) {
      return none;
    }
    i = (i + 1) & (block_cap - 1);
  }
  const Block found = blocks[i];
  // Backward-shift deletion keeps every probe chain unbroken.
  uint64_t hole = i;
  for (uint64_t j = (i + 1) & (block_cap - 1); blocks[j].ptr != 0; j = (j + 1) & (block_cap - 1)) {
    const uint64_t home = Slot(blocks[j].ptr, block_cap);
    if (((j - home) & (block_cap - 1)) >= ((j - hole) & (block_cap - 1))) {
      blocks[hole] = blocks[j];
      hole = j;
    }
  }
  blocks[hole].ptr = 0;
  --block_count;
  return found;
}

static uint32_t InternStack(void* const* frames, int n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < n; ++i) {
    h = Mix(h ^ (uintptr_t)frames[i]);
  }
  const uint32_t mask = (1u << STACK_INDEX_BITS) - 1;
  for (uint32_t i = h & mask;; i = (i + 1) & mask) {
    const uint32_t id = stack_index[i];
    if (id == 0) {
      if (num_stacks == MAX_STACKS) {
        return 0;
      }
      Stack* s = &stacks[num_stacks];
      s->hash = h;
      s->depth = n;
      memcpy(s->frames, frames, n * sizeof(void*));
      stack_index[i] = num_stacks;
      return num_stacks++;
    }
    if (stacks[id].hash == h && stacks[id].depth == n &&
        memcmp(stacks[id].frames, frames, n * sizeof(void*)) == 0) {
      return id;
    }
  }
}

static void Snapshot(void) {
  for (uint32_t i = 0; i < num_stacks; ++i) {
    stacks[i].peak_bytes = stacks[i].live_bytes;
    stacks[i].peak_blocks = stacks[i].live_blocks;
  }
  snapshot_at = live;
}

static void Track(void* p, size_t size) {
  if (p == NULL || !ready || in_hook) {
    return;
  }
  in_hook = 1;
  void* frames[DEPTH + 2];
  // Frame 0 is this function and frame 1 the wrapper that called it.
  int n = backtrace(frames, DEPTH + 2) - 2;
  if (n < 0) {
    n = 0;
  }
  pthread_mutex_lock(&lock);
  const uint32_t id = InternStack(frames + 2, n);
  InsertBlock((Block){(uintptr_t)p, size, id});
  stacks[id].live_bytes += size;
  ++stacks[id].live_blocks;
  live += size;
  ++allocations;
  if (live > peak) {
    peak = live;
    if (peak >= snapshot_at + STEP) {
      Snapshot();
    }
  }
  pthread_mutex_unlock(&lock);
  in_hook = 0;
}

static void Untrack(void* p) {
  if (p == NULL || !ready) {
    return;
  }
  pthread_mutex_lock(&lock);
  const Block b = TakeBlock((uintptr_t)p);
  if (b.ptr != 0) {
    stacks[b.stack].live_bytes -= b.size;
    --stacks[b.stack].live_blocks;
    live -= b.size;
  }
  pthread_mutex_unlock(&lock);
}

static int InBootstrap(const void* p) {
  return (const char*)p >= bootstrap && (const char*)p < bootstrap + sizeof bootstrap;
}

static void* BootstrapAlloc(size_t size) {
  const size_t at = (bootstrap_used + 15) & ~(size_t)15;
  if (at + size > sizeof bootstrap) {
    return NULL;
  }
  bootstrap_used = at + size;
  return bootstrap + at;
}

static int resolving;

static void Resolve(void) {
  if (real_malloc != NULL || resolving) {
    return;
  }
  resolving = 1;
  real_malloc = dlsym(RTLD_NEXT, "malloc");
  real_free = dlsym(RTLD_NEXT, "free");
  real_calloc = dlsym(RTLD_NEXT, "calloc");
  real_realloc = dlsym(RTLD_NEXT, "realloc");
  real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
  real_aligned_alloc = dlsym(RTLD_NEXT, "aligned_alloc");
  real_memalign = dlsym(RTLD_NEXT, "memalign");
  resolving = 0;
}

__attribute__((constructor)) static void Init(void) {
  Resolve();
  stacks = Map(MAX_STACKS * sizeof(Stack));
  stack_index = Map(sizeof(uint32_t) << STACK_INDEX_BITS);
  GrowBlocks();
  in_hook = 1;
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder, which allocates, before tracking starts
  in_hook = 0;
  ready = stacks != NULL && stack_index != NULL && blocks != NULL;
}

// Where `addr` lies: its object file, and the address to hand addr2line
// (file-relative for shared objects and PIE executables).
static char self_path[4096] = "?";

static void Locate(void* addr, const char** module, uintptr_t* offset) {
  Dl_info info;
  *module = "?";
  *offset = (uintptr_t)addr;
  // Return addresses point past the call; step back into it.
  void* at = (char*)addr - 1;
  if (dladdr(at, &info) == 0 || info.dli_fname == NULL) {
    return;
  }
  *module = info.dli_fname[0] != '\0' ? info.dli_fname : self_path;
  const ElfW(Ehdr)* ehdr = (const ElfW(Ehdr)*)info.dli_fbase;
  *offset = ehdr->e_type == ET_EXEC ? (uintptr_t)at : (uintptr_t)at - (uintptr_t)info.dli_fbase;
}

__attribute__((destructor)) static void Report(void) {
  const char* path = getenv("HEAP_PEAK_RAW");
  if (!ready || path == NULL) {
    return;
  }
  // The process is exiting: stop tracking (fopen and fclose allocate) and
  // write the last snapshot.
  ready = 0;
  const ssize_t n = readlink("/proc/self/exe", self_path, sizeof self_path - 1);
  self_path[n > 0 ? n : 1] = '\0';
  FILE* out = fopen(path, "w");
  if (out != NULL) {
    fprintf(out, "peak %lld at_snapshot %lld allocations %llu stacks %u\n", (long long)peak,
            (long long)snapshot_at, (unsigned long long)allocations, num_stacks);
    // Largest first; selection is fine for the few sites reported.
    const char* top_env = getenv("HEAP_PEAK_TOP");
    const int top = top_env != NULL && atoi(top_env) > 0 ? atoi(top_env) : 20;
    uint32_t* order = Map(num_stacks * sizeof(uint32_t));
    for (uint32_t i = 0; i < num_stacks; ++i) {
      order[i] = i;
    }
    for (int r = 0; r < top && (uint32_t)r < num_stacks; ++r) {
      uint32_t best = r;
      for (uint32_t i = r + 1; i < num_stacks; ++i) {
        if (stacks[order[i]].peak_bytes > stacks[order[best]].peak_bytes) {
          best = i;
        }
      }
      const uint32_t t = order[r];
      order[r] = order[best];
      order[best] = t;
      const Stack* s = &stacks[order[r]];
      if (s->peak_bytes <= 0) {
        break;
      }
      fprintf(out, "site %d %lld %lld\n", r + 1, (long long)s->peak_bytes,
              (long long)s->peak_blocks);
      for (int f = 0; f < s->depth; ++f) {
        const char* module;
        uintptr_t offset;
        Locate(s->frames[f], &module, &offset);
        fprintf(out, "frame %s 0x%lx\n", module, (unsigned long)offset);
      }
    }
    fclose(out);
  }
}

void* malloc(size_t size) {
  Resolve();
  if (real_malloc == NULL) {
    return BootstrapAlloc(size);
  }
  void* p = real_malloc(size);
  Track(p, size);
  return p;
}

void free(void* p) {
  Resolve();
  if (p == NULL || InBootstrap(p)) {
    return;
  }
  Untrack(p);
  real_free(p);
}

void* calloc(size_t n, size_t size) {
  Resolve();
  if (real_calloc == NULL) {
    void* p = BootstrapAlloc(n * size);  // static storage is zeroed
    return p;
  }
  void* p = real_calloc(n, size);
  Track(p, n * size);
  return p;
}

void* realloc(void* p, size_t size) {
  Resolve();
  if (InBootstrap(p)) {
    void* q = malloc(size);
    if (q != NULL) {
      const size_t room = (size_t)(bootstrap + sizeof bootstrap - (char*)p);
      memcpy(q, p, size < room ? size : room);
    }
    return q;
  }
  void* q = real_realloc(p, size);
  if (q == NULL && size != 0) {
    return NULL;  // failed: the old block stays as it was
  }
  Untrack(p);
  Track(q, size);
  return q;
}

int posix_memalign(void** out, size_t alignment, size_t size) {
  Resolve();
  const int rc = real_posix_memalign(out, alignment, size);
  if (rc == 0) {
    Track(*out, size);
  }
  return rc;
}

void* aligned_alloc(size_t alignment, size_t size) {
  Resolve();
  void* p = real_aligned_alloc(alignment, size);
  Track(p, size);
  return p;
}

void* memalign(size_t alignment, size_t size) {
  Resolve();
  void* p = real_memalign(alignment, size);
  Track(p, size);
  return p;
}
