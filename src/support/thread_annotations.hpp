// Portable Clang thread-safety-analysis annotations — the vocabulary the
// whole tree uses to make its locking discipline machine-checkable.
//
// Under Clang, `-Wthread-safety` turns these macros into the capability
// attributes of the static thread-safety analysis: every field annotated
// RSAT_GUARDED_BY(mu) may only be touched while `mu` is held, every
// function annotated RSAT_REQUIRES(mu) may only be called with `mu` held,
// and every RSAT_EXCLUDES(mu) function documents — and enforces — that it
// takes `mu` itself, so calling it with `mu` held would self-deadlock.
// The CI clang job builds all of src/ with `-Wthread-safety -Werror`, so a
// violation is a build break, not a review comment. Under every other
// compiler (the GCC tier-1 builds included) the macros expand to nothing.
//
// The annotated primitives that carry these attributes — support::Mutex,
// support::LockGuard, support::UniqueLock, support::CondVar — live in
// support/mutex.hpp. Library code never uses std::mutex directly
// (tools/rsat_lint.py rule `bare-mutex`): a bare std::mutex is invisible
// to the analysis, so every guarded field would silently lose its check.
//
// Naming follows the current Clang capability spellings (acquire/release/
// requires) rather than the legacy lockable ones; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for semantics.
#pragma once

#if defined(__clang__)
#define RSAT_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define RSAT_THREAD_ANNOTATION__(x)  // no-op off Clang
#endif

/// Class attribute: instances are capabilities (lockable objects). The
/// argument is the capability kind shown in diagnostics, e.g. "mutex".
#define RSAT_CAPABILITY(x) RSAT_THREAD_ANNOTATION__(capability(x))

/// Class attribute: RAII objects that acquire a capability in their
/// constructor and release it in their destructor (LockGuard, UniqueLock).
#define RSAT_SCOPED_CAPABILITY RSAT_THREAD_ANNOTATION__(scoped_lockable)

/// Field attribute: reads and writes require holding the given capability.
#define RSAT_GUARDED_BY(x) RSAT_THREAD_ANNOTATION__(guarded_by(x))

/// Field attribute for pointers: the *pointed-to* data is guarded by the
/// capability (the pointer itself may be read freely).
#define RSAT_PT_GUARDED_BY(x) RSAT_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function attribute: the caller must hold the given capabilities.
#define RSAT_REQUIRES(...) \
  RSAT_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function attribute: acquires the capabilities (held on return). On a
/// scoped-capability member function, an empty argument list means "the
/// capabilities this scoped object manages".
#define RSAT_ACQUIRE(...) \
  RSAT_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function attribute: releases the capabilities (must be held on entry;
/// empty argument list on scoped-capability members as for RSAT_ACQUIRE).
#define RSAT_RELEASE(...) \
  RSAT_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function attribute: acquires the capability iff the return value equals
/// the first argument, e.g. RSAT_TRY_ACQUIRE(true).
#define RSAT_TRY_ACQUIRE(...) \
  RSAT_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function attribute: the caller must NOT hold the given capabilities —
/// the function acquires them internally. This is the vocabulary for the
/// repo's "work outside the lock" patterns: DiskStore file I/O and
/// MetricsRegistry name lookup.
#define RSAT_EXCLUDES(...) RSAT_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function attribute: asserts (at runtime, by contract) that the
/// capability is held, injecting it into the analysis state.
#define RSAT_ASSERT_CAPABILITY(x) \
  RSAT_THREAD_ANNOTATION__(assert_capability(x))

/// Function attribute: the returned reference IS the given capability
/// (accessor pattern).
#define RSAT_RETURN_CAPABILITY(x) RSAT_THREAD_ANNOTATION__(lock_returned(x))

/// Declares a fixed acquisition order between capabilities (deadlock
/// prevention; checked under -Wthread-safety-beta).
#define RSAT_ACQUIRED_BEFORE(...) \
  RSAT_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define RSAT_ACQUIRED_AFTER(...) \
  RSAT_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Escape hatch: turns the analysis off inside one function body while its
/// declaration attributes still inform callers. Reserved for the primitive
/// wrappers themselves (support/mutex.hpp), where the body manipulates the
/// raw std::mutex the analysis cannot see.
#define RSAT_NO_THREAD_SAFETY_ANALYSIS \
  RSAT_THREAD_ANNOTATION__(no_thread_safety_analysis)
