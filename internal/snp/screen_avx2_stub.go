//go:build !amd64

package snp

import "gnumap/internal/dna"

// prescreenBlocksSIMD reports false so the dispatcher falls back to
// prescreenBlocksGeneric.
func prescreenBlocksSIMD(planes *[dna.NumChannels][]float32, start int, refc []dna.Code, out []uint8, blocks int, cfg *Config) bool {
	return false
}
