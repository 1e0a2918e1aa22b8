package core

import (
	"errors"
	"fmt"

	"gnumap/internal/fastq"
	"gnumap/internal/phmm"
	"gnumap/internal/pwm"
)

// CollectTrainingPairs maps reads and returns (PWM, window) training
// pairs for Baum-Welch parameter estimation (phmm.Fit), keeping only
// confidently, uniquely mapped reads: a single location holding at
// least minWeight of the read's posterior mass. max bounds the number
// of pairs (0 = no bound). The returned windows alias the reference.
func (e *Engine) CollectTrainingPairs(reads []*fastq.Read, max int, minWeight float64) ([]phmm.TrainingPair, error) {
	if minWeight == 0 {
		minWeight = 0.99
	}
	if minWeight < 0.5 || minWeight > 1 {
		return nil, fmt.Errorf("core: training minWeight %g out of [0.5, 1]", minWeight)
	}
	m, err := e.getMapper()
	if err != nil {
		return nil, err
	}
	defer e.putMapper(m)
	var pairs []phmm.TrainingPair
	errFull := errors.New("core: training pairs full")
	err = m.mapBatch(reads, false, func(i int, locs []location) error {
		if max > 0 && len(pairs) >= max {
			return errFull // stop mapping: the bound is reached
		}
		if len(locs) == 0 {
			return nil
		}
		ws := e.weights(logLiks(locs, nil))
		best, bestW := -1, 0.0
		for i, w := range ws {
			if w > bestW {
				best, bestW = i, w
			}
		}
		if best < 0 || bestW < minWeight {
			return nil
		}
		loc := locs[best]
		window, _ := e.ref.Window(loc.windowStart, len(loc.contribs))
		if len(window) == 0 {
			return nil
		}
		// The pair outlives the mapper's PWM slots: build its own.
		x := new(pwm.Matrix)
		if e.fillPWM(x, reads[i]) != nil {
			return nil
		}
		if loc.minus {
			x = x.ReverseComplement()
		}
		pairs = append(pairs, phmm.TrainingPair{X: x, Y: window})
		return nil
	})
	if err != nil && !errors.Is(err, errFull) {
		return nil, err
	}
	return pairs, nil
}
