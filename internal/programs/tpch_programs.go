package programs

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/tpch"
)

// TPCHClass returns the classification of TPC-H program n (1-6): programs
// 1-3 perform cascade deletion, 4-6 mix constraint and cascade behaviour.
func TPCHClass(n int) Class {
	if n >= 1 && n <= 3 {
		return ClassCascade
	}
	return ClassMixed
}

// TPCH returns TPC-H program n (1-6) of Table 2 with constants bound from
// the dataset's key cuts. The paper's abbreviated attribute vectors (X, Y,
// Z) are expanded to the fragment's full attribute lists.
func TPCH(n int, ds *tpch.Dataset) (*datalog.Program, error) {
	if n < 1 || n > 6 {
		return nil, fmt.Errorf("programs: TPC-H program %d out of range 1-6", n)
	}
	src, err := tpchSource(n, ds)
	if err != nil {
		return nil, err
	}
	return datalog.ParseAndValidate(src, tpch.Schema())
}

// TPCHSource exposes the concrete rule text of program T-n.
func TPCHSource(n int, ds *tpch.Dataset) (string, error) { return tpchSource(n, ds) }

func tpchSource(n int, ds *tpch.Dataset) (string, error) {
	skCut := ds.SuppKeyCut
	okCut := ds.OrderKeyCut
	nation := ds.TargetNation

	switch n {
	case 1:
		return fmt.Sprintf(`
(1) Delta_PartSupp(pk, sk, q) :- PartSupp(pk, sk, q), Supplier(sk, sn, snk), sk < %d.
(2) Delta_LineItem(ok, ln, pk, sk, q) :- LineItem(ok, ln, pk, sk, q), Delta_PartSupp(pk2, sk, q2).
`, skCut), nil
	case 2:
		return fmt.Sprintf(`
(1) Delta_PartSupp(pk, sk, q) :- PartSupp(pk, sk, q), sk < %d.
(2) Delta_LineItem(ok, ln, pk, sk, q) :- LineItem(ok, ln, pk, sk, q), Delta_PartSupp(pk2, sk, q2).
`, skCut), nil
	case 3:
		return fmt.Sprintf(`
(1) Delta_PartSupp(pk, sk, q) :- PartSupp(pk, sk, q), Supplier(sk, sn, snk), Part(pk, pn), sk < %d.
(2) Delta_LineItem(ok, ln, pk, sk, q) :- LineItem(ok, ln, pk, sk, q), Delta_PartSupp(pk2, sk, q2).
`, skCut), nil
	case 4:
		return fmt.Sprintf(`
(1) Delta_LineItem(ok, ln, pk, sk, q) :- LineItem(ok, ln, pk, sk, q), ok < %d.
(2) Delta_Supplier(sk, sn, snk) :- Supplier(sk, sn, snk), Delta_LineItem(ok, ln, pk, sk, q).
(3) Delta_Customer(ck, cn, cnk) :- Customer(ck, cn, cnk), Orders(ok, ck, pr), Delta_LineItem(ok, ln, pk, sk, q).
`, okCut), nil
	case 5:
		return fmt.Sprintf(`
(1) Delta_Nation(nk, nn, rk) :- Nation(nk, nn, rk), nk = %d.
(2) Delta_Supplier(sk, sn, nk) :- Supplier(sk, sn, nk), Delta_Nation(nk, nn, rk), Customer(ck, cn, nk).
(3) Delta_Customer(ck, cn, nk) :- Customer(ck, cn, nk), Delta_Nation(nk, nn, rk), Supplier(sk, sn, nk).
`, nation), nil
	case 6:
		return fmt.Sprintf(`
(1) Delta_Orders(ok, ck, pr) :- Orders(ok, ck, pr), Customer(ck, cn, cnk), ok < %d.
(2) Delta_PartSupp(pk, sk, q) :- PartSupp(pk, sk, q), Supplier(sk, sn, snk), sk < %d.
(3) Delta_LineItem(ok, ln, pk, sk, q) :- LineItem(ok, ln, pk, sk, q), Delta_Orders(ok, ck, pr).
(4) Delta_LineItem(ok, ln, pk, sk, q) :- LineItem(ok, ln, pk, sk, q), Delta_PartSupp(pk2, sk, q2).
`, okCut, skCut), nil
	default:
		return "", fmt.Errorf("programs: TPC-H program %d out of range", n)
	}
}
