//go:build !amd64

package phmm

import "testing"

// setAVX2: there is only the generic kernel off amd64.
func setAVX2(_ testing.TB, on bool) bool { return !on }
