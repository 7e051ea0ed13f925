// Package replacement keeps the few aliases of repro/pkg/plru that the
// separate cpabench module still imports (cpabench/layers.go names
// replacement.Kind, replacement.BT and replacement.NRU). Every other
// caller imports repro/pkg/plru directly; new code must too. Delete this
// package once the benchmark module is repointed.
package replacement

import "repro/pkg/plru"

// Kind identifies a replacement policy family. See plru.Kind.
type Kind = plru.Kind

// The policy kinds cpabench/layers.go selects.
const (
	NRU = plru.NRU // Not Recently Used (used bit + global replacement pointer)
	BT  = plru.BT  // Binary Tree pseudo-LRU
)
