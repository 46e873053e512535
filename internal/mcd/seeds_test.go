//go:build !race

package mcd

// oracleSeeds is how many seeds of each shape the oracle comparisons run.
const oracleSeeds = 20

// qualitySeeds is how many fit seeds the comparisons against
// converge-all-ten and the basin tests run on each dataset.
const qualitySeeds = 12
