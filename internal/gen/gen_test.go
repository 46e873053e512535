package gen

import (
	"math"
	"testing"
)

func TestDevicesGroundTruth(t *testing.T) {
	d := Devices(DeviceConfig{Points: 50_000, Devices: 500, OutlierDeviceFraction: 0.02, Seed: 1})
	if len(d.Points) != 50_000 {
		t.Fatalf("points = %d", len(d.Points))
	}
	if len(d.OutlierDevices) != 10 {
		t.Fatalf("outlier devices = %d, want 10", len(d.OutlierDevices))
	}
	// Points from outlier devices should average near 70, others
	// near 10.
	var outSum, outN, inSum, inN float64
	for i := range d.Points {
		v := d.Points[i].Metrics[0]
		if d.OutlierDevices[d.Points[i].Attrs[0]] {
			outSum += v
			outN++
		} else {
			inSum += v
			inN++
		}
	}
	if math.Abs(outSum/outN-70) > 2 {
		t.Errorf("outlier mean = %v", outSum/outN)
	}
	if math.Abs(inSum/inN-10) > 1 {
		t.Errorf("inlier mean = %v", inSum/inN)
	}
}

func TestDevicesLabelNoiseFlipsDistributions(t *testing.T) {
	clean := Devices(DeviceConfig{Points: 50_000, Devices: 100, Seed: 2})
	noisy := Devices(DeviceConfig{Points: 50_000, Devices: 100, LabelNoise: 0.3, Seed: 2})
	// With label noise, inlier devices emit high readings more often.
	count := func(d *DeviceData) int {
		high := 0
		for i := range d.Points {
			if !d.OutlierDevices[d.Points[i].Attrs[0]] && d.Points[i].Metrics[0] > 40 {
				high++
			}
		}
		return high
	}
	if count(noisy) <= count(clean)*5 {
		t.Errorf("label noise had no visible effect: clean %d noisy %d", count(clean), count(noisy))
	}
}

func TestExplanationF1(t *testing.T) {
	d := Devices(DeviceConfig{Points: 1000, Devices: 100, OutlierDeviceFraction: 0.05, Seed: 3})
	perfect := make(map[int32]bool)
	for id := range d.OutlierDevices {
		perfect[id] = true
	}
	if _, _, f1 := d.ExplanationF1(perfect); f1 != 1 {
		t.Errorf("perfect recovery F1 = %v", f1)
	}
	if p, r, f1 := d.ExplanationF1(nil); p != 0 || r != 0 || f1 != 0 {
		t.Errorf("empty recovery = %v/%v/%v", p, r, f1)
	}
	// Half recovered, no false positives.
	half := make(map[int32]bool)
	n := 0
	for id := range d.OutlierDevices {
		if n%2 == 0 {
			half[id] = true
		}
		n++
	}
	p, r, _ := d.ExplanationF1(half)
	if p != 1 || math.Abs(r-0.6) > 0.2 {
		t.Errorf("half recovery p=%v r=%v", p, r)
	}
}

func TestContamination(t *testing.T) {
	pts, isOut := Contamination(10_000, 2, 0.3, 4)
	nOut := 0
	for i, p := range pts {
		if isOut[i] {
			nOut++
			if math.Hypot(p[0]-1000, p[1]-1000) > 50.001 {
				t.Fatalf("outlier point %v outside cluster", p)
			}
		} else if math.Hypot(p[0], p[1]) > 50.001 {
			t.Fatalf("inlier point %v outside cluster", p)
		}
	}
	frac := float64(nOut) / float64(len(pts))
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("outlier fraction = %v", frac)
	}
	uni, _ := Contamination(100, 1, 0.1, 5)
	if len(uni[0]) != 1 {
		t.Error("univariate points have wrong dims")
	}
}

func TestFig5StreamScript(t *testing.T) {
	_, pts, d0 := Fig5Stream(Fig5Config{BaseRate: 100, Seed: 6})
	if len(pts) == 0 {
		t.Fatal("empty stream")
	}
	// Phase checks: mean in [0,50) ~10; D0 mean in [50,100) ~70;
	// global mean in [150,225) ~40; spike rate at [320,324).
	var sum1, n1, sumD0, nD0, sum3, n3 float64
	spikeCount, baseCount := 0, 0
	for i := range pts {
		p := &pts[i]
		switch {
		case p.Time < 50:
			sum1 += p.Metrics[0]
			n1++
		case p.Time >= 50 && p.Time < 100 && p.Attrs[0] == d0:
			sumD0 += p.Metrics[0]
			nD0++
		case p.Time >= 150 && p.Time < 225:
			sum3 += p.Metrics[0]
			n3++
		}
		if p.Time >= 320 && p.Time < 321 {
			spikeCount++
		}
		if p.Time >= 310 && p.Time < 311 {
			baseCount++
		}
	}
	if math.Abs(sum1/n1-10) > 2 {
		t.Errorf("phase 1 mean = %v", sum1/n1)
	}
	if math.Abs(sumD0/nD0-70) > 5 {
		t.Errorf("D0 anomaly mean = %v", sumD0/nD0)
	}
	if math.Abs(sum3/n3-40) > 2 {
		t.Errorf("shifted mean = %v", sum3/n3)
	}
	if spikeCount < 8*baseCount {
		t.Errorf("arrival spike missing: %d vs %d", spikeCount, baseCount)
	}
}

func TestCatalogDatasets(t *testing.T) {
	cat := Catalog()
	if len(cat) != 6 {
		t.Fatalf("catalog size = %d", len(cat))
	}
	for _, d := range cat {
		if d.Points == 0 || len(d.MetricNames) == 0 || len(d.Attrs) == 0 {
			t.Errorf("incomplete dataset %q", d.Name)
		}
	}
	if _, err := DatasetByName("CMT"); err != nil {
		t.Error(err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestDatasetGenerateShapes(t *testing.T) {
	d, err := DatasetByName("Liquor")
	if err != nil {
		t.Fatal(err)
	}
	encS, ptsS, _ := d.Generate(GenerateConfig{Points: 5000, Simple: true, Seed: 7})
	if len(ptsS) != 5000 {
		t.Fatalf("points = %d", len(ptsS))
	}
	if len(ptsS[0].Metrics) != 1 || len(ptsS[0].Attrs) != 1 {
		t.Errorf("simple query arity = %d/%d", len(ptsS[0].Metrics), len(ptsS[0].Attrs))
	}
	encC, ptsC, planted := d.Generate(GenerateConfig{Points: 5000, Simple: false, Seed: 7})
	if len(ptsC[0].Metrics) != 2 || len(ptsC[0].Attrs) != 4 {
		t.Errorf("complex query arity = %d/%d", len(ptsC[0].Metrics), len(ptsC[0].Attrs))
	}
	if len(planted) != d.PlantedGroups {
		t.Errorf("planted = %d", len(planted))
	}
	if encS.Size() == 0 || encC.Size() == 0 {
		t.Error("encoders empty")
	}
	// Planted groups must actually shift metrics.
	plantedSet := map[int32]bool{}
	for _, p := range planted {
		plantedSet[p] = true
	}
	var pSum, pN, oSum, oN float64
	for i := range ptsC {
		if plantedSet[ptsC[i].Attrs[0]] {
			pSum += ptsC[i].Metrics[0]
			pN++
		} else {
			oSum += ptsC[i].Metrics[0]
			oN++
		}
	}
	if pN == 0 {
		t.Fatal("no planted points generated")
	}
	if pSum/pN < oSum/oN+10 {
		t.Errorf("planted mean %v not shifted vs %v", pSum/pN, oSum/oN)
	}
}

func TestDBSherlockCluster(t *testing.T) {
	cl := DBSherlockCluster(ClusterConfig{Samples: 100, Anomaly: A5CPUStress, Seed: 8})
	if len(cl.Points) != clusterServers*100 {
		t.Fatalf("points = %d", len(cl.Points))
	}
	if len(cl.Hosts) != clusterServers {
		t.Fatalf("hosts = %d", len(cl.Hosts))
	}
	// Anomalous host's counter 0 (CPU) should average higher.
	var aSum, aN, oSum, oN float64
	for i := range cl.Points {
		v := cl.Points[i].Metrics[0]
		if cl.Points[i].Attrs[0] == cl.AnomalousHost {
			aSum += v
			aN++
		} else {
			oSum += v
			oN++
		}
	}
	if aSum/aN < oSum/oN+5 {
		t.Errorf("anomaly signature invisible: %v vs %v", aSum/aN, oSum/oN)
	}
	// Workloads differ.
	c2 := DBSherlockCluster(ClusterConfig{Samples: 10, Anomaly: A5CPUStress, Workload: "tpce", Seed: 8})
	if c2.Points[0].Metrics[0] == cl.Points[0].Metrics[0] {
		t.Log("warning: workloads may coincide (non-fatal)")
	}
	// Signatures cover all nine anomalies, and QE sets are non-empty.
	for _, a := range AllAnomalies() {
		if len(QEMetricIndices(a)) == 0 {
			t.Errorf("%v has empty QE metric set", a)
		}
	}
	if len(QSMetricIndices()) != 15 {
		t.Errorf("QS metric set size = %d, want 15", len(QSMetricIndices()))
	}
	proj := ProjectMetrics(cl.Points[:10], []int{0, 1})
	if len(proj[0].Metrics) != 2 {
		t.Error("projection wrong")
	}
}

func TestElectricityAnomalyWindow(t *testing.T) {
	_, pts, fridge := Electricity(ElectricityConfig{Devices: 3, Days: 2, Seed: 9})
	var lunchSum, lunchN, otherSum, otherN float64
	for i := range pts {
		if pts[i].Attrs[0] != fridge {
			continue
		}
		hour := int(pts[i].Time/3600) % 24
		if hour == 12 {
			lunchSum += pts[i].Metrics[0]
			lunchN++
		} else {
			otherSum += pts[i].Metrics[0]
			otherN++
		}
	}
	if lunchSum/lunchN < otherSum/otherN+30 {
		t.Errorf("lunchtime anomaly invisible: %v vs %v", lunchSum/lunchN, otherSum/otherN)
	}
}

func TestVideoBurst(t *testing.T) {
	_, frames, burst := Video(VideoConfig{Frames: 100, BurstStart: 50, BurstLen: 20, Seed: 10})
	if len(frames) != 100 {
		t.Fatalf("frames = %d", len(frames))
	}
	if len(burst) == 0 {
		t.Fatal("no burst intervals")
	}
	if len(frames[0].Metrics) != 64*48 {
		t.Errorf("frame size = %d", len(frames[0].Metrics))
	}
}

func TestTripsPlantedIssues(t *testing.T) {
	_, pts, badDevice, badVersion := Trips(TripsConfig{Trips: 20_000, Seed: 11})
	var badBat, okBat, badQ, okQ float64
	var nBadBat, nOkBat, nBadQ, nOkQ float64
	for i := range pts {
		if pts[i].Attrs[0] == badDevice {
			badBat += pts[i].Metrics[1]
			nBadBat++
		} else {
			okBat += pts[i].Metrics[1]
			nOkBat++
		}
		if pts[i].Attrs[1] == badVersion {
			badQ += pts[i].Metrics[2]
			nBadQ++
		} else {
			okQ += pts[i].Metrics[2]
			nOkQ++
		}
	}
	if badBat/nBadBat < okBat/nOkBat+10 {
		t.Error("battery issue invisible")
	}
	if badQ/nBadQ > okQ/nOkQ-20 {
		t.Error("quality issue invisible")
	}
}

func TestAnomalyString(t *testing.T) {
	if A1WorkloadSpike.String() != "A1" || A9PoorQuery.String() != "A9" {
		t.Error("anomaly labels wrong")
	}
}
