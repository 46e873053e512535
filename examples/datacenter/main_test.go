package main

// Example runs the case study and pins what it prints.
func Example() {
	main()
	// Output:
	// counter snapshots=8800 flagged=440
	//
	// hosts ranked by risk ratio:
	// 1. {hostname=tpcc-host00} support=0.9091 riskRatio=100.00
	//
	// ground truth: tpcc-host00 (anomaly A8)
}
