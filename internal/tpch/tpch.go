// Package tpch generates a synthetic TPC-H fragment with the shape the
// paper evaluates on: the eight TPC-H tables at reduced cardinalities
// totalling ~376K tuples at scale 1.0 (the paper's fragment size), keeping
// the standard TPC-H cardinality ratios (lineitem ≈ 4× orders,
// partsupp = 4× part, etc.). It substitutes for dbgen's output, which the
// experiments need only for those ratios and the join keys.
//
// Attribute lists are simplified to the key and join columns the paper's
// programs use (Table 2 writes the remaining attributes as X/Y/Z).
package tpch

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
)

// Cardinalities at scale 1.0, totalling ~376K tuples.
const (
	baseRegions   = 5
	baseNations   = 25
	baseSuppliers = 500
	baseCustomers = 7500
	baseParts     = 10000
	basePartSupp  = 40000
	baseOrders    = 63500
	baseLineItems = 254000
)

// Config controls generation.
type Config struct {
	// Scale multiplies all base cardinalities; 1.0 ≈ 376K tuples.
	Scale float64
	// Seed drives the deterministic random stream.
	Seed int64
}

// Dataset is the generated database plus metadata for rule constants.
type Dataset struct {
	DB *engine.Database

	NumRegions, NumNations, NumSuppliers, NumCustomers int
	NumParts, NumPartSupp, NumOrders, NumLineItems     int

	// SuppKeyCut selects ~2% of suppliers via "sk < SuppKeyCut" (T-1..T-3, T-6).
	SuppKeyCut int
	// OrderKeyCut selects ~0.5% of orders via "ok < OrderKeyCut" (T-4, T-6).
	OrderKeyCut int
	// TargetNation is the nation key used by T-5's "nk = C".
	TargetNation int
	// CustKeyCut selects ~1% of customers via "ck < CustKeyCut" (T-6).
	CustKeyCut int
}

// Schema returns the TPC-H fragment schema:
//
//	Region(rk, name)                Nation(nk, name, rk)
//	Customer(ck, name, nk)          Supplier(sk, name, nk)
//	Part(pk, name)                  PartSupp(pk, sk, qty)
//	Orders(ok, ck, price)           LineItem(ok, ln, pk, sk, qty)
func Schema() *engine.Schema {
	s := engine.NewSchema()
	s.MustAddRelation("Region", "r", "rk", "name")
	s.MustAddRelation("Nation", "n", "nk", "name", "rk")
	s.MustAddRelation("Customer", "c", "ck", "name", "nk")
	s.MustAddRelation("Supplier", "s", "sk", "name", "nk")
	s.MustAddRelation("Part", "p", "pk", "name")
	s.MustAddRelation("PartSupp", "ps", "pk", "sk", "qty")
	s.MustAddRelation("Orders", "o", "ok", "ck", "price")
	s.MustAddRelation("LineItem", "li", "ok", "ln", "pk", "sk", "qty")
	return s
}

func scaled(base int, scale float64) int {
	n := int(math.Round(float64(base) * scale))
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds the dataset deterministically from the config.
func Generate(cfg Config) *Dataset {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := engine.NewDatabase(Schema())

	nRegions := scaled(baseRegions, cfg.Scale)
	nNations := scaled(baseNations, cfg.Scale)
	nSuppliers := scaled(baseSuppliers, cfg.Scale)
	nCustomers := scaled(baseCustomers, cfg.Scale)
	nParts := scaled(baseParts, cfg.Scale)
	nPartSupp := scaled(basePartSupp, cfg.Scale)
	nOrders := scaled(baseOrders, cfg.Scale)
	nLineItems := scaled(baseLineItems, cfg.Scale)
	if nNations < nRegions {
		nNations = nRegions
	}

	for r := 1; r <= nRegions; r++ {
		db.MustInsert("Region", engine.Int(r), engine.Str(fmt.Sprintf("region%d", r)))
	}
	for n := 1; n <= nNations; n++ {
		db.MustInsert("Nation", engine.Int(n), engine.Str(fmt.Sprintf("nation%d", n)),
			engine.Int(1+(n-1)%nRegions))
	}
	for s := 1; s <= nSuppliers; s++ {
		db.MustInsert("Supplier", engine.Int(s), engine.Str(fmt.Sprintf("supplier%d", s)),
			engine.Int(1+rng.Intn(nNations)))
	}
	for c := 1; c <= nCustomers; c++ {
		db.MustInsert("Customer", engine.Int(c), engine.Str(fmt.Sprintf("customer%d", c)),
			engine.Int(1+rng.Intn(nNations)))
	}
	for p := 1; p <= nParts; p++ {
		db.MustInsert("Part", engine.Int(p), engine.Str(fmt.Sprintf("part%d", p)))
	}
	// PartSupp: spread suppliers over parts round-robin with jitter,
	// deduplicated by set semantics.
	for db.Relation("PartSupp").Len() < nPartSupp {
		pk := 1 + rng.Intn(nParts)
		sk := 1 + rng.Intn(nSuppliers)
		db.MustInsert("PartSupp", engine.Int(pk), engine.Int(sk), engine.Int(1+rng.Intn(9999)))
	}
	for o := 1; o <= nOrders; o++ {
		db.MustInsert("Orders", engine.Int(o), engine.Int(1+rng.Intn(nCustomers)),
			engine.Int(100+rng.Intn(99900)))
	}
	// LineItems: each order gets ~4 lines on average; line numbers make
	// rows unique. Parts/suppliers are drawn independently (the paper's
	// programs join only on ok and sk).
	ln := 0
	order := 1
	for db.Relation("LineItem").Len() < nLineItems {
		ln++
		db.MustInsert("LineItem",
			engine.Int(order), engine.Int(ln),
			engine.Int(1+rng.Intn(nParts)), engine.Int(1+rng.Intn(nSuppliers)),
			engine.Int(1+rng.Intn(50)))
		if ln >= 1+rng.Intn(7) {
			ln = 0
			order++
			if order > nOrders {
				order = 1 // wrap: remaining lines pile on early orders
			}
		}
	}

	ds := &Dataset{DB: db}
	ds.NumRegions = db.Relation("Region").Len()
	ds.NumNations = db.Relation("Nation").Len()
	ds.NumSuppliers = db.Relation("Supplier").Len()
	ds.NumCustomers = db.Relation("Customer").Len()
	ds.NumParts = db.Relation("Part").Len()
	ds.NumPartSupp = db.Relation("PartSupp").Len()
	ds.NumOrders = db.Relation("Orders").Len()
	ds.NumLineItems = db.Relation("LineItem").Len()

	// Cuts select ~2% of suppliers / ~0.5% of orders / ~1% of customers but
	// always at least one row each, so every program has work even at tiny
	// scales.
	ds.SuppKeyCut = nSuppliers/50 + 2
	ds.OrderKeyCut = nOrders/200 + 2
	ds.TargetNation = 1
	ds.CustKeyCut = nCustomers/100 + 2
	return ds
}

// Total returns the total number of base tuples in the dataset.
func (d *Dataset) Total() int {
	return d.NumRegions + d.NumNations + d.NumSuppliers + d.NumCustomers +
		d.NumParts + d.NumPartSupp + d.NumOrders + d.NumLineItems
}
