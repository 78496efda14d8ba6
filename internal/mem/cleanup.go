//go:build go1.24

package mem

import "runtime"

// onUnreachable runs release(table) once owner is unreachable. Both
// callers pass a table the owner holds and nothing else reaches, so the
// table is dead with it.
func onUnreachable[T, S any](owner *T, release func(S), table S) {
	runtime.AddCleanup(owner, release, table)
}
