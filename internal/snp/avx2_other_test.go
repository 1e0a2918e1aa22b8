//go:build !amd64

package snp

import "testing"

// setAVX2: there is only the portable kernel off amd64.
func setAVX2(_ testing.TB, on bool) bool { return !on }
