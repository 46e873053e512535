package main

// Example runs the case study and pins what it prints.
func Example() {
	main()
	// Output:
	// trips=150000 flagged=10169 explanations=3
	//
	// 1. {app_version=v2.3} support=0.8643 riskRatio=69.53
	// 2. {device_type=device_07, app_version=v2.3} support=0.0202 riskRatio=12.52
	// 3. {device_type=device_07} support=0.1559 riskRatio=9.06
	//
	// ground truth: battery issue on device_type=device_07, quality issue on app_version=v2.3
}
