//go:build !amd64

package core

import "testing"

// setAVX2: there are only the Go rows off amd64.
func setAVX2(_ testing.TB, on bool) bool { return !on }
