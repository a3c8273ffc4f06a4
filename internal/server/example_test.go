package server_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/server"
)

// ExampleService shows the serving pattern end to end: register a named
// (schema, program, database) session once, then answer requests off the
// cached prepared plan and frozen snapshot — the service prepares and
// freezes at registration and forks per request after that.
func ExampleService() {
	schema, _ := engine.ParseSchema(`
		Grant(gid, name)
		Author(aid, gid)`)
	db := engine.NewDatabase(schema)
	db.MustInsert("Grant", engine.Int(1), engine.Str("NSF"))
	db.MustInsert("Grant", engine.Int(2), engine.Str("ERC"))
	db.MustInsert("Author", engine.Int(10), engine.Int(2))
	prog, _ := datalog.ParseAndValidate(`
		Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
		Delta_Author(a, g) :- Author(a, g), Delta_Grant(g, n).`, schema)

	svc, err := server.Open(server.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := svc.Register("grants", schema, db, prog); err != nil {
		fmt.Println(err)
		return
	}

	// Requests are safe to issue concurrently; each works on a private
	// copy-on-write fork of the session's frozen snapshot.
	res, _, _, err := svc.RepairVersioned(context.Background(), "grants", core.SemStage, server.RequestOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s deleted %d tuples: %v\n", res.Semantics, res.Size(), res.Keys())

	stable, _, _ := svc.IsStableVersioned(context.Background(), "grants", server.RequestOptions{})
	fmt.Printf("session database stable: %v\n", stable)
	// Output:
	// stage deleted 2 tuples: [Grant(i2,"ERC") Author(i10,i2)]
	// session database stable: false
}

// ExampleService_update shows mutable sessions: base-table updates mint
// new snapshot versions in place — no re-registration, no re-preparing,
// untouched relations share storage with every earlier version — and
// requests may pin a version for read-your-writes while the head moves
// on.
func ExampleService_update() {
	schema, _ := engine.ParseSchema(`
		Grant(gid, name)
		Author(aid, gid)`)
	db := engine.NewDatabase(schema)
	db.MustInsert("Grant", engine.Int(1), engine.Str("NSF"))
	db.MustInsert("Grant", engine.Int(2), engine.Str("ERC"))
	db.MustInsert("Author", engine.Int(10), engine.Int(2))
	prog, _ := datalog.ParseAndValidate(`
		Delta_Grant(g, n) :- Grant(g, n), n = 'ERC'.
		Delta_Author(a, g) :- Author(a, g), Delta_Grant(g, n).`, schema)

	svc, err := server.Open(server.Config{})
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := svc.Register("grants", schema, db, prog); err != nil {
		fmt.Println(err)
		return
	}
	ctx := context.Background()

	// Another author joins the doomed ERC grant: one update, new version.
	upd, _ := svc.Update(ctx, "grants",
		[]engine.Row{{Rel: "Author", Vals: []engine.Value{engine.Int(11), engine.Int(2)}}},
		nil, server.RequestOptions{})
	fmt.Printf("update minted version %d (+%d row)\n", upd.Version, upd.Inserted)

	// The head sees the new author cascade into the repair...
	res, _, version, _ := svc.RepairVersioned(ctx, "grants", core.SemStage, server.RequestOptions{})
	fmt.Printf("v%d: %s deleted %d tuples\n", version, res.Semantics, res.Size())

	// ...while pinning the pre-update version still answers as before.
	res, _, version, _ = svc.RepairVersioned(ctx, "grants", core.SemStage,
		server.RequestOptions{Version: 1})
	fmt.Printf("v%d: %s deleted %d tuples\n", version, res.Semantics, res.Size())
	// Output:
	// update minted version 2 (+1 row)
	// v2: stage deleted 3 tuples
	// v1: stage deleted 2 tuples
}
