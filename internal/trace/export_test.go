package trace

import "testing"

// FailAfterSync routes every file the package opens until t ends through
// a writer that, once the file has been fsynced, lets n more bytes
// through and fails the write past them — or with n < 0 fails the next
// fsync — and returns the error it fails with.
func FailAfterSync(t testing.TB, n int) error { return injectFaults(t, n, true) }

// Standard is the seed-7 kernel profile set, measured once per test
// binary.
var Standard = standard
