//go:build !amd64

package core

import "testing"

// setKernel: there are only the Go rows off amd64.
func setKernel(_ testing.TB, kernel string) bool { return kernel == "generic" }
