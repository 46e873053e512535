package main

// Example runs the case study and pins what it prints.
func Example() {
	main()
	// Output:
	// processed 200000 points, 2000 outliers, 3 explanations
	//
	// 1. {device=B264, app_version=2.26.3} support=0.9665 riskRatio=319.36
	//    95% CI on risk ratio: [250.5, 407.2]
	// 2. {device=B264} support=0.9720 riskRatio=104.41
	//    95% CI on risk ratio: [80.1, 136.2]
	// 3. {app_version=2.26.3} support=0.9740 riskRatio=75.34
	//    95% CI on risk ratio: [57.2, 99.2]
}
