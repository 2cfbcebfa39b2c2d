package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynring"
	"dynring/internal/cluster"
	"dynring/internal/service"
	"dynring/internal/service/sched"
)

// replayResult holds the layer metrics the replay measures.
type replayResult struct {
	rows                  int
	expandUS, fpUS, advUS float64 // per row
	runUS                 []float64
	stepped, leapt        int
	runTotal              time.Duration
	encodeUS, encodeBytes float64 // per row
	getUS, putUS          float64
	diskGetUS, diskPutUS  float64
	schedNS, ownersNS     float64
}

// batchReps repeats the sub-microsecond layers (sched, ring placement,
// cache probes) over the replay rows so their timing is not lost in clock
// resolution.
const batchReps = 20

// replay feeds a workload's generated grids through each layer's public
// functions, one call at a time on one goroutine, recording one span per
// call (per batch for the sub-microsecond layers). tmp is a scratch
// directory for the durable cache tier.
func replay(ctx context.Context, specs []dynring.SweepSpec, log *spanLog, tmp string) (replayResult, error) {
	var rr replayResult
	root := spanRec{Name: "replay", Start: time.Now()}
	var kids []spanRec
	span := func(name string, start time.Time, attrs map[string]string) time.Duration {
		end := time.Now()
		kids = append(kids, spanRec{Name: name, Start: start, End: end, Attrs: attrs})
		return end.Sub(start)
	}

	var fps []string
	var results []dynring.Result
	var jobs []int
	runner := dynring.NewRunner()
	var expand, fpT, advT, encT time.Duration
	var encBytes int
	for _, spec := range specs {
		t := time.Now()
		scs, err := spec.ScenarioList()
		expand += span("spec.expand", t, nil)
		if err != nil {
			return rr, err
		}
		jobs = append(jobs, len(scs))
		for i, sc := range scs {
			t = time.Now()
			fp, err := sc.Fingerprint()
			fpT += span("fingerprint", t, nil)
			if err != nil {
				return rr, err
			}

			t = time.Now()
			f, err := rowAdversary(spec, i).Factory()
			if err != nil {
				return rr, err
			}
			if f(sc.Seed) == nil {
				return rr, fmt.Errorf("row %s: adversary factory returned nil", sc.Name)
			}
			advT += span("adversary.new", t, nil)

			t = time.Now()
			res, err := runner.Run(ctx, sc)
			st := runner.LastStats()
			d := span("runner.run", t, map[string]string{
				"stepped": fmt.Sprint(st.RoundsStepped), "leapt": fmt.Sprint(st.RoundsLeapt)})
			if err != nil {
				return rr, err
			}
			rr.runUS = append(rr.runUS, us(d))
			rr.runTotal += d
			rr.stepped += st.RoundsStepped
			rr.leapt += st.RoundsLeapt

			t = time.Now()
			b, err := json.Marshal(dynring.ResultRow{Index: i, Name: sc.Name, Fingerprint: fp, Result: &res})
			encT += span("encode", t, nil)
			if err != nil {
				return rr, err
			}
			encBytes += len(b)
			fps = append(fps, fp)
			results = append(results, res)
		}
	}
	n := len(fps)
	if n == 0 {
		return rr, fmt.Errorf("replay has no rows")
	}
	rr.rows = n
	perRow := func(d time.Duration) float64 { return us(d) / float64(n) }
	rr.expandUS, rr.fpUS, rr.advUS, rr.encodeUS = perRow(expand), perRow(fpT), perRow(advT), perRow(encT)
	rr.encodeBytes = float64(encBytes) / float64(n)

	// Memory tier: Put on fresh keys into a cache already at capacity, so
	// every Put evicts; then Get on resident keys.
	full := service.NewCache(nodeCache)
	for i := 0; i < nodeCache; i++ {
		full.Put(fmt.Sprintf("fill-%d", i), results[i%n])
	}
	t := time.Now()
	for i := range fps {
		full.Put(fps[i], results[i])
	}
	rr.putUS = perRow(span("cache.put", t, map[string]string{"calls": fmt.Sprint(n)}))
	t = time.Now()
	for r := 0; r < batchReps; r++ {
		for _, fp := range fps {
			if _, ok := full.Get(fp); !ok {
				return rr, fmt.Errorf("cache: resident key %s missed", fp)
			}
		}
	}
	rr.getUS = perRow(span("cache.get", t, map[string]string{"calls": fmt.Sprint(n * batchReps)})) / batchReps

	// Durable tier, replay only: Put every row and flush, then reopen with
	// the memory tier disabled so every Get reads its file.
	dir := filepath.Join(tmp, fmt.Sprintf("disk-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	quiet := func(string, ...any) {}
	disk, err := service.NewTieredCache(nodeCache, dir, quiet)
	if err != nil {
		return rr, err
	}
	t = time.Now()
	for i := range fps {
		disk.Put(fps[i], results[i])
	}
	disk.Close()
	rr.diskPutUS = perRow(span("cache.disk_put", t, map[string]string{"calls": fmt.Sprint(n)}))
	cold, err := service.NewTieredCache(0, dir, quiet)
	if err != nil {
		return rr, err
	}
	t = time.Now()
	for _, fp := range fps {
		if _, ok := cold.Get(fp); !ok {
			cold.Close()
			return rr, fmt.Errorf("disk tier: key %s missed after flush", fp)
		}
	}
	rr.diskGetUS = perRow(span("cache.disk_get", t, map[string]string{"calls": fmt.Sprint(n)}))
	cold.Close()

	// Scheduler: enqueue the grids as jobs of one tenant and drain them.
	t = time.Now()
	for r := 0; r < batchReps; r++ {
		s := sched.New[int]()
		s.AddTenant("anonymous", 1)
		for j, total := range jobs {
			s.Enqueue("anonymous", j, total, 0)
		}
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	rr.schedNS = perRow(span("sched.enqueue_next", t, map[string]string{"tasks": fmt.Sprint(n * batchReps)})) * 1000 / batchReps

	// Placement: the owner plus one replica on a three-member ring.
	ring := cluster.NewRing([]string{"http://node-a", "http://node-b", "http://node-c"}, 0)
	t = time.Now()
	for r := 0; r < batchReps; r++ {
		for _, fp := range fps {
			if len(ring.Owners(fp, replicas)) != replicas {
				return rr, fmt.Errorf("ring: fingerprint %s has no replica set", fp)
			}
		}
	}
	rr.ownersNS = perRow(span("cluster.owners", t, map[string]string{"calls": fmt.Sprint(n * batchReps)})) * 1000 / batchReps

	root.End = time.Now()
	id := log.add(root)
	for _, k := range kids {
		k.Parent = id
		log.add(k)
	}
	return rr, nil
}
