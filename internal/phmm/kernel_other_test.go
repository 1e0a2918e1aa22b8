//go:build !amd64

package phmm

import "testing"

// setKernel: there is only the generic kernel off amd64.
func setKernel(_ testing.TB, kernel string) bool { return kernel == "generic" }
