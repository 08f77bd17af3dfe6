package rubis

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// RequestKind is one emulated web interaction.
type RequestKind int

// The RUBiS browse/bid mix interactions.
const (
	ReqBrowseItems RequestKind = iota
	ReqViewItem
	ReqViewUser
	ReqPlaceBid
	ReqAddComment
	ReqRegisterUser
	ReqBuyNow
)

// String names the request kind.
func (k RequestKind) String() string {
	switch k {
	case ReqBrowseItems:
		return "BrowseItems"
	case ReqViewItem:
		return "ViewItem"
	case ReqViewUser:
		return "ViewUser"
	case ReqPlaceBid:
		return "PlaceBid"
	case ReqAddComment:
		return "AddComment"
	case ReqRegisterUser:
		return "RegisterUser"
	case ReqBuyNow:
		return "BuyNow"
	default:
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
}

// mix is the default browse/bid transition mix (read-mostly, matching the
// RUBiS bidding workload's ~85/15 read/write split).
var mix = []struct {
	kind RequestKind
	prob float64
}{
	{ReqBrowseItems, 0.35},
	{ReqViewItem, 0.30},
	{ReqViewUser, 0.10},
	{ReqPlaceBid, 0.15},
	{ReqAddComment, 0.04},
	{ReqRegisterUser, 0.01},
	{ReqBuyNow, 0.05},
}

// EmulatorConfig parameterizes a run.
type EmulatorConfig struct {
	// DB is the populated database under test.
	DB *DB
	// Clock measures throughput in simulated time.
	Clock clock.Clock
	// Clients is the number of concurrent simulated clients (the paper
	// uses 300).
	Clients int
	// RequestsPerClient bounds each client's session length.
	RequestsPerClient int
	// BrowseReads is how many item rows a browse page touches.
	BrowseReads int
	// Seed makes runs reproducible.
	Seed int64
}

func (c *EmulatorConfig) defaults() error {
	if c.DB == nil {
		return errors.New("rubis: DB required")
	}
	if c.Clock == nil {
		return errors.New("rubis: clock required")
	}
	if c.Clients <= 0 {
		c.Clients = 10
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 50
	}
	if c.BrowseReads <= 0 {
		c.BrowseReads = 5
	}
	return nil
}

// EmulatorResult summarizes a run.
type EmulatorResult struct {
	Requests   int
	Errors     int64
	Duration   time.Duration // clock time
	Throughput float64       // requests/sec of clock time
	Latency    *telemetry.Histogram
	PerKind    map[RequestKind]int64
}

// Populate loads users and items (the RUBiS database initialization; the
// paper populates 50,000 items and 50,000 customers — tests use fewer).
func Populate(db *DB, users, items int) error {
	for i := 0; i < users; i++ {
		if _, err := db.RegisterUser(User{
			Name: fmt.Sprintf("user-%d", i), Email: fmt.Sprintf("u%d@example.com", i),
			Region: "us-east",
		}); err != nil {
			return err
		}
	}
	for i := 0; i < items; i++ {
		if _, err := db.ListItem(Item{
			SellerID: int64(i % max(users, 1)), Name: fmt.Sprintf("item-%d", i),
			Description: "a fine auction item", Category: i % 20,
			Quantity: 10, StartPrice: 1.0, BuyNow: 100.0,
		}); err != nil {
			return err
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RunEmulator drives the closed-loop client mix and reports throughput in
// clock time.
func RunEmulator(cfg EmulatorConfig) (*EmulatorResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	users, items, _, _ := cfg.DB.Counts()
	if users == 0 || items == 0 {
		return nil, errors.New("rubis: database not populated")
	}
	res := &EmulatorResult{
		Latency: telemetry.NewHistogram(),
		PerKind: make(map[RequestKind]int64),
	}
	var mu sync.Mutex
	var errCount atomic.Int64

	start := cfg.Clock.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < cfg.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(cl)))
			for r := 0; r < cfg.RequestsPerClient; r++ {
				kind := drawKind(rng)
				opStart := cfg.Clock.Now()
				err := runRequest(cfg, rng, kind, users, items)
				if err != nil {
					errCount.Add(1)
					continue
				}
				res.Latency.Record(cfg.Clock.Since(opStart))
				mu.Lock()
				res.PerKind[kind]++
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	res.Duration = cfg.Clock.Since(start)
	res.Requests = cfg.Clients * cfg.RequestsPerClient
	res.Errors = errCount.Load()
	if res.Duration > 0 {
		res.Throughput = float64(res.Requests-int(res.Errors)) / res.Duration.Seconds()
	}
	return res, nil
}

func drawKind(rng *rand.Rand) RequestKind {
	r := rng.Float64()
	acc := 0.0
	for _, m := range mix {
		acc += m.prob
		if r < acc {
			return m.kind
		}
	}
	return ReqBrowseItems
}

func runRequest(cfg EmulatorConfig, rng *rand.Rand, kind RequestKind, users, items int64) error {
	db := cfg.DB
	randItem := func() int64 { return rng.Int63n(items) }
	randUser := func() int64 { return rng.Int63n(users) }
	switch kind {
	case ReqBrowseItems:
		for i := 0; i < cfg.BrowseReads; i++ {
			if _, err := db.GetItem(randItem()); err != nil {
				return err
			}
		}
		return nil
	case ReqViewItem:
		id := randItem()
		if _, err := db.GetItem(id); err != nil {
			return err
		}
		_, err := db.ItemBids(id, 5)
		return err
	case ReqViewUser:
		_, err := db.GetUser(randUser())
		return err
	case ReqPlaceBid:
		_, err := db.PlaceBid(randItem(), randUser(), rng.Float64()*100)
		return err
	case ReqAddComment:
		_, err := db.AddComment(Comment{
			FromID: randUser(), ToID: randUser(), ItemID: randItem(),
			Rating: rng.Intn(5), Text: "great seller",
		})
		return err
	case ReqRegisterUser:
		_, err := db.RegisterUser(User{Name: "new", Email: "new@example.com", Region: "us-east"})
		return err
	case ReqBuyNow:
		err := db.BuyNow(randItem(), randUser())
		if err != nil && err.Error() == "rubis: item sold out" {
			return nil // application-level outcome, not a system error
		}
		return err
	default:
		return fmt.Errorf("rubis: unknown request kind %v", kind)
	}
}
