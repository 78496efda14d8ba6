//go:build !go1.24

package mem

// onUnreachable does nothing before Go 1.24, which has no AddCleanup:
// a dead table's pages are left to the garbage collector, and every
// page is a new one.
func onUnreachable[T, S any](*T, func(S), S) {}
