// Package rescache provides the shared LRU result cache (Cache), its durable
// tier (Disk) and the single-flight execution gate (Group) underlying both
// the ringsimd service's fingerprint-keyed cache (internal/service) and the
// in-process sweep memo (dynring.Memo).
//
// The package is deliberately generic and policy-free: it knows nothing
// about scenarios or results. The correctness argument lives with the
// keys — both consumers key by a canonical content hash whose contract is
// "equal key implies identical value", so serving a cached (deep-copied)
// value is indistinguishable from recomputing it. See docs/ARCHITECTURE.md
// for the full cache-correctness invariants.
package rescache
