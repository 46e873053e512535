//go:build !race

package mcd

// oracleSeeds is how many seeds of each shape the oracle comparisons run.
const oracleSeeds = 20
