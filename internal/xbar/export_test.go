package xbar

import "testing"

// CompiledMismatch exposes compiledMismatch to the external tests, which
// build their designs through internal/core.
func CompiledMismatch(t *testing.T, s Stack, perms [][]int) string {
	return compiledMismatch(t, s, perms)
}
