package main

// Example runs the case study and pins what it prints.
func Example() {
	main()
	// Output:
	// raw readings=181440 hourly windows=3024 outlying windows=152
	//
	// 1. {device=plug0} support=1.0000 riskRatio=+Inf
	// 2. {device=plug0, hour_of_day=h12} support=0.1382 riskRatio=22.92
	// 3. {hour_of_day=h12} support=0.1382 riskRatio=3.69
	//
	// ground truth: device=plug0 misbehaves between 12PM and 1PM
}
