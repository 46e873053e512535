package main

// Example runs the case study and pins what it prints.
func Example() {
	main()
	// Output:
	// frames=900 flow points=899 outlying=27
	//
	// flagged intervals:
	//   {interval=sec060} support=0.3704 riskRatio=52.29
	//   {interval=sec061} support=0.3333 riskRatio=44.45
	//   {interval=sec062} support=0.2963 riskRatio=37.43
	//
	// ground truth burst intervals: [sec060 sec061 sec062]
}
