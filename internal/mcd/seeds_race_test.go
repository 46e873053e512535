//go:build race

package mcd

// oracleSeeds under the race detector: the comparisons are
// single-goroutine arithmetic, which the detector slows tenfold and has
// nothing to find in, so it gets a sample of the seeds.
const oracleSeeds = 3

// qualitySeeds under the race detector, for the same reason.
const qualitySeeds = 2

// crewSeeds under the race detector: a crew hands work off the same way
// on every seed, so one seed shows the detector all there is to find.
const crewSeeds = 1
