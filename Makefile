# Convenience targets for the PMWare reproduction workspace.

.PHONY: verify build test clippy doc fmt chaos paper paper-golden bench bench-check bench-gca bench-golden bench-smoke bench-wire bench-storage lint-args lint-counters lint-deps lint-hash lint-rig lint-wire lint-latency lint-storage loc obs test-storage

# The full pre-merge gate: release build, the whole test suite, a
# warning-free clippy pass over every target in the workspace, a
# rustdoc pass that fails on any warning (a broken intra-doc link
# included), a formatting check, the chaos gate (fault-injection matrix + soak), the
# soak smoke runs (a tiny-config throughput run that fails if parallel and
# sequential studies ever diverge, the zero-perturbation overhead bench,
# and the storage soak with its built-in capped-below-uncapped
# assertion), the wire lint that keeps requests and replies typed (no
# untyped JSON bodies, nothing parsed from JSON), the hash lint that keeps
# SipHash off the GCA absorb path, the flag-parser lint that keeps
# every binary on the one parser that refuses unknown flags, the
# counter lint that keeps registry counters from being set outside
# checkpoint restore, the
# dependency lint that fails on a manifest entry no file names, the
# wall-clock lint that keeps real time out of simulation code, the
# storage gate (durable crash-recovery goldens and the residency lint),
# the golden-bench gate (the sim-time BENCH_chaos.json report regenerates
# byte-identical), and the benchmark check (perfbench still builds and
# its smoke test passes). The observability goldens run in `test`.
# verify leaves the tree as it found it: the machine-timed reports
# BENCH_obs.json and BENCH_storage.json are regenerated only by `make
# obs` and `make bench-storage`.
verify: build test clippy doc fmt lint-args lint-counters lint-deps lint-hash lint-rig lint-wire lint-latency lint-storage chaos test-storage bench-smoke bench-golden bench-check

build:
	cargo build --release --workspace

test:
	cargo test -q --workspace

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# The docs gate: every workspace crate's rustdoc builds without a
# warning, so a link to a private or renamed item fails here.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Formatting is part of the gate: workspace crates only (vendored deps
# are path dependencies, not workspace members, so fmt never touches
# them).
fmt:
	cargo fmt --check

# The chaos gate: the deterministic fault-injection matrix (five fault
# kinds x four endpoints x reboot modes, each asserting bit-identical
# convergence) plus a chaos-soak smoke run that writes BENCH_chaos.json
# and fails if any rate <= 0.30 does not converge.
chaos:
	cargo test --release --test chaos_matrix --test connected_apps
	cargo run --release -p pmware-bench --bin chaos_soak

# The paper's tables (Figures 1-2, the §1 WiFi numbers, the §4 study,
# the ablations, the route modes and the detection latency; see
# EXPERIMENTS.md), each at its defaults, in EXPERIMENTS.md order.
paper:
	cargo run --release --quiet -p pmware-bench --bin paper

# Rewrites tests/golden/paper_tables.txt, which the tier-1 test
# tests/paper_tables.rs compares every table with, from the release
# `paper` binary. Run it after a change meant to move a table and review
# the diff; a failed run leaves the file as it was.
paper-golden:
	cargo build --release --quiet -p pmware-bench --bin paper
	./target/release/paper > tests/golden/paper_tables.txt.tmp
	mv tests/golden/paper_tables.txt.tmp tests/golden/paper_tables.txt

bench:
	cargo bench -p pmware-bench

# The benchmark check: perfbench/ is a cargo workspace of its own, so
# `cargo test --workspace` never compiles it. This builds it against the
# current crates and runs its smoke test (every workload at a tiny size,
# traced and untraced), so a cloud API change that breaks the benchmark
# fails here instead of going unnoticed.
bench-check:
	cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Incremental-vs-batch nightly discovery cost and cold-vs-memoized
# analytics throughput; writes BENCH_gca.json in the repo root.
bench-gca:
	cargo run --release -p pmware-bench --bin gca_scaling

# The soak smoke runs, in a scratch directory so the checked-in
# BENCH_cohort.json, BENCH_obs.json and BENCH_storage.json are never
# clobbered. A tiny-config cohort throughput pass over the full thread
# ladder asserts every timed run equals the sequential reference bit for
# bit; the overhead bench exits nonzero if instrumentation perturbs
# results; the storage soak exits nonzero if the residency cap leaks or
# the capped arm's peak RSS reaches the uncapped arm's.
bench-smoke:
	cargo build --quiet --release -p pmware-bench --bin cohort_throughput \
		--bin obs_overhead --bin storage_soak
	tmp=$$(mktemp -d) && cd $$tmp && \
		$(CURDIR)/target/release/cohort_throughput --participants 2 --days 2 --repeats 1 && \
		$(CURDIR)/target/release/obs_overhead && \
		$(CURDIR)/target/release/storage_soak && \
		rm -rf $$tmp

# Per-endpoint cost of the typed request path, the one form a request
# takes: perfbench's traced cloud_replay, whose cloud.handle_s.<endpoint>
# and cloud.handle_us_p99.<endpoint> rows time each endpoint's handler.
# Prints the rows; writes no file.
bench-wire:
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
		--workload cloud_replay --seed 1 --seconds 10 --trace 1

# The typed-request gate. A request and its reply exist only as typed
# values (Request, Response, Payload); JSON is a rendering of a body for
# exports, goldens and error text, never parsed back. So:
# handlers receive typed Payload bodies, and the client and the CLI
# build typed payloads, so none of them may mention `json!(` (handlers
# and CLI: nor `serde_json::Value`). `#[cfg(test)]` code in the client
# and the CLI is exempt — the lint strips everything from their `mod
# tests` down. No non-test code in crates/*/src may bring back a second
# body representation: the `Payload::Json` escape hatch, a
# `From<Value> for Payload`, or a `.parse::<` on a request or reply
# body. Nor may it parse a request or a reply from JSON: no
# `post_json(`, `from_json(`, `reply_from_json`, `Request::from_bytes`
# or `Response::from_bytes`. The one `from_json(` allowed is the phone
# checkpoint's (`PmsCheckpoint::from_json` in crates/core/src/
# checkpoint.rs), which restores a phone's state, not a request. Nor may
# non-test code in crates/*/src or the examples read a reply field by
# indexing its JSON rendering (`.json()[`): it matches on the typed
# Payload instead. Nor may non-test code in crates/cloud/src outside
# wire.rs decode a discover batch into observations
# (`ObservationBatch::decode`, `.decode()`): the server validates a batch
# and absorbs its coded entries straight from the columns. In every file,
# everything from `#[cfg(test)]` down is exempt.
lint-wire:
	@! grep -rn 'json!(\|serde_json::Value' crates/cloud/src/handlers/ \
		|| { echo 'lint-wire: untyped JSON crept back into crates/cloud/src/handlers/'; exit 1; }
	@! sed -n '1,/^mod tests {/p' crates/core/src/cloud_client.rs | grep -n 'json!(' \
		|| { echo 'lint-wire: json! crept back into the CloudClient request builders'; exit 1; }
	@! sed -n '1,/^mod tests {/p' crates/cli/src/main.rs | grep -n 'json!(\|serde_json::Value' \
		|| { echo 'lint-wire: untyped JSON crept back into the CLI requests'; exit 1; }
	@! for f in $$(find crates/*/src -name '*.rs'); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" \
			| grep -n 'Payload::Json\|From<\(serde_json::\)\{0,1\}Value> for Payload\|\(body\|response\)\.parse::<' \
			| sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-wire: a second body representation crept back into crates/*/src'; exit 1; }
	@! for f in $$(find crates/*/src -name '*.rs'); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" \
			| grep -n 'post_json(\|from_json(\|reply_from_json\|Request::from_bytes\|Response::from_bytes' \
			| sed "s|^|$$f:|"; \
	done | grep -v '^crates/core/src/checkpoint\.rs:[0-9]*:    pub fn from_json(json: &str)' \
		| grep -v 'PmsCheckpoint::from_json(' | grep . \
		|| { echo 'lint-wire: a request or reply is parsed from JSON in crates/*/src'; exit 1; }
	@! for f in $$(find crates/*/src examples -name '*.rs'); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" | grep -n '\.json()\[' | sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-wire: a reply field is read from its JSON rendering; match on the typed Payload'; exit 1; }
	@! for f in $$(find crates/cloud/src -name '*.rs' ! -path crates/cloud/src/wire.rs); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" | grep -n 'ObservationBatch::decode\|\.decode()' | sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-wire: a discover batch is decoded outside wire.rs; validate it and absorb its entries'; exit 1; }
	@echo 'lint-wire: ok'

# The flag-parser lint: every binary reads its command line through
# `pmware_bench::args::Args`, which names the flags a binary accepts and
# refuses the rest, so no other non-test code in crates/ may read
# `std::env::args` itself. Integration tests (`crates/*/tests`) and
# everything from a file's `#[cfg(test)]` down are exempt.
lint-args:
	@! for f in $$(find crates -path '*/tests' -prune -o -name '*.rs' -print); do \
		[ "$$f" = crates/bench/src/args.rs ] && continue; \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" | grep -n 'env::args' | sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-args: a binary reads std::env::args around pmware_bench::args'; exit 1; }
	@echo 'lint-args: ok'

# The rig lint: the simulated phone every study carries (radio config,
# energy model, start instant) is chosen in one place,
# `PmwareMobileService::on_itinerary` in crates/core/src/pms.rs, so no
# other non-test code in crates/ may call `PmwareMobileService::new`
# itself. Integration tests (`crates/*/tests`), examples and everything
# from a file's `#[cfg(test)]` down are exempt.
lint-rig:
	@! for f in $$(find crates -path '*/tests' -prune -o -path '*/examples' -prune \
			-o -name '*.rs' -print); do \
		[ "$$f" = crates/core/src/pms.rs ] && continue; \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" \
			| grep -n 'PmwareMobileService\(::<[^>]*>\)\{0,1\}::new\b' | sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-rig: a driver calls PmwareMobileService::new; build its phone with on_itinerary'; exit 1; }
	@echo 'lint-rig: ok'

# The counter lint: a registry counter is monotonic and each counted
# fact lives in one handle, so no non-test code in crates/*/src outside
# the obs crate may overwrite a value with `.set(`. The one exception is
# checkpoint restore, `PmsMetrics::seed` in crates/core/src/pms.rs (its
# body is blanked before the grep). Everything from a file's
# `#[cfg(test)]` down is exempt. A grep cannot tell a Counter from a
# Gauge or a Cell, so the lint refuses every `.set(` call, not only
# Counter::set: gauges here move by `add` deltas (resident users go up
# and down by one), which compose when several writers share a
# registry, where a `set` lets the last writer win. A gauge that needs
# an absolute value must be added as a named exception here.
lint-counters:
	@! for f in $$(find crates/*/src -name '*.rs' -not -path 'crates/obs/src/*'); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" \
			| if [ "$$f" = crates/core/src/pms.rs ]; then \
				sed '/^    fn seed(/,/^    }$$/s/.*//'; else cat; fi \
			| grep -n '\.set(' | sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-counters: a .set( call outside PmsMetrics::seed (checkpoint restore); counters only go up, gauges move by add'; exit 1; }
	@echo 'lint-counters: ok'

# The dependency lint: every dependency a workspace member's Cargo.toml
# (the root facade's and each crate's) lists, normal, dev or build,
# must be named, with `-` read as `_`, by some file under that member's
# src/, tests/, benches/ or examples/. An
# unused one still has to build before the crate's tests can run.
lint-deps:
	@! for toml in Cargo.toml crates/*/Cargo.toml; do \
		dir=$$(dirname "$$toml"); \
		dirs=$$(for d in src tests benches examples; do [ -d "$$dir/$$d" ] && echo "$$dir/$$d"; done); \
		for dep in $$(awk '/^\[/ { on = /^\[(build-|dev-)?dependencies\]$$/; next } \
				on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$$toml"); do \
			grep -rqw "$$(echo "$$dep" | tr - _)" $$dirs || echo "$$toml: $$dep"; \
		done; \
	done | grep . \
		|| { echo 'lint-deps: a crate lists a dependency none of its files name'; exit 1; }
	@echo 'lint-deps: ok'

# The hash lint: GCA absorb hashes cell IDs and symbols for every GSM
# sample, so the maps on that path use the fixed-key Fx hasher from
# pmware_world::intern. Non-test code in gca.rs and intern.rs may not
# name a `HashMap` or `HashSet` of std's default SipHash hasher. Comment
# lines and the `FxHashMap` alias, which names its hasher, are exempt.
lint-hash:
	@! for f in crates/algorithms/src/gca.rs crates/world/src/intern.rs; do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" | grep -n '\bHash\(Map\|Set\)\b' \
			| grep -v '^[0-9]*:[[:space:]]*//' | grep -v 'FxBuildHasher' \
			| sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-hash: a default-hasher HashMap/HashSet crept onto the GCA absorb path'; exit 1; }
	@echo 'lint-hash: ok'

# Rust line counts of the workspace crates, the vendored stand-ins, and
# the root facade's src/, tests/ and examples/: the workspace size
# ROADMAP.md asks to drive down. The indented per-crate lines under
# `crates` show where a change added or removed code.
loc:
	@for dir in crates vendor src tests examples; do \
		echo "$$dir $$(find $$dir -name '*.rs' -print0 | xargs -0 cat | wc -l)"; \
	done
	@for dir in crates/*/; do \
		echo "  $${dir%/} $$(find $$dir -name '*.rs' -print0 | xargs -0 cat | wc -l)"; \
	done

# The wall-clock lint guards determinism: simulation code runs on sim
# time only, so the same seed gives the same bytes on any machine, and
# no simulation code may read a real clock. The only sanctioned
# wall-clock readers are the throughput/overhead bench binaries in
# crates/bench/src/bin, which measure wall time on purpose.
lint-latency:
	@! grep -rn 'std::time::\(Instant\|SystemTime\)' crates \
		--include='*.rs' --exclude-dir=bin \
		|| { echo 'lint-latency: wall-clock time crept into simulation code'; exit 1; }
	@echo 'lint-latency: ok'

# The golden-bench gate: the chaos report is a pure sim-time output, so
# regenerating it must leave the checked-in file byte-identical (tier-1
# pins the same bytes in tests/chaos_report.rs). A drift fails here
# instead of dirtying the tree.
bench-golden:
	cargo run --release -p pmware-bench --bin chaos_soak
	git diff --exit-code -- BENCH_chaos.json

# The storage gate: the engine's golden tests — byte-identical durable
# replay after a crash (users parked at the crash included),
# deterministic LRU eviction, and the capped-vs-uncapped proptest
# equivalence — the
# engine's unit tests (snapshot file layout, checksums and generations,
# the binary store codec's bit-exact round trip over generated stores
# and its hostile-bytes cases, park/hydrate fidelity, failed snapshot
# and WAL writes and unreadable snapshots counted, stale-only shard
# rewrites under fresh generation names, WAL sequences never reused),
# the WAL frame codec's (the typed op of every logged route round-trips,
# generated ops bit for bit; truncations are torn, bit flips corrupt,
# hostile op bodies and random bytes rejected), the WAL crash-point
# matrix (storage::crash_points: every shard cut at every frame boundary
# +-1..3 bytes and bit-flipped in every frame, recovering exactly the
# prefix before the damage), the shard rewrite and snapshot crash
# windows in the same module (a .tmp beside generation N, generations N
# and N+1; each recovers byte-identical reads under the pre-crash
# tokens), older-format shards counted and never read, damaged snapshot
# files there too (an old-format JSON snapshot, and bit flips and cuts
# in each region of a parked user's file: each counted and never
# hydrated; a version-1 file is refused too), the shared binary codec's
# primitives and the batch codec's, plus the durable arm of the chaos
# matrix. Snapshots park the GCA engine's export and hydration restores
# it, so the engine's own tests (restore equals the uninterrupted engine
# at every split; every inconsistent export refused) run here as well.
test-storage:
	cargo test --release -q -p pmware-algorithms --test incremental_gca
	cargo test --release -q -p pmware-cloud --test storage
	cargo test --release -q -p pmware-cloud --lib -- storage:: wire:: codec::
	cargo test --release --test chaos_matrix chaos_matrix_durable_crash_recovery_converges

# Storage soak: capped-RSS-vs-population ladder (each arm in its own
# child process so peak RSS is honest), hydration latency vs history
# length, and crash-recovery time; writes BENCH_storage.json in the
# repo root and exits nonzero if the residency cap leaks or the capped
# arm's peak RSS reaches the uncapped arm's. Flags: --cap, --rounds,
# --seed.
bench-storage:
	cargo run --release -p pmware-bench --bin storage_soak

# The storage-boundary lint: every UserStore access goes through the
# engine (DESIGN.md §5k), so outside crates/cloud/src/storage/ no cloud
# code may reach into a `.users.` shard map or mint a bare
# `Arc<Mutex<UserStore>>` of its own. Snapshot files and the WAL's
# frames are binary, and a WAL frame carries a typed op, never a
# request's JSON: no non-test code under crates/cloud/src/storage/ may
# name `serde_json`, or render or parse a request's JSON wire bytes
# (`Request::to_bytes`/`Request::from_bytes`, `request.to_bytes(` or
# `.wire_bytes(`). Everything from a file's `#[cfg(test)]` down is
# exempt, as is crash_points.rs, a module compiled only for tests.
lint-storage:
	@! grep -rn '\.users\.\|Arc::new(Mutex::new(UserStore' crates/cloud/src \
		--include='*.rs' | grep -v 'src/storage/' \
		|| { echo 'lint-storage: UserStore access leaked around the storage engine'; exit 1; }
	@! for f in $$(find crates/cloud/src/storage -name '*.rs' \
			-not -name crash_points.rs); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" | grep -n 'serde_json' | sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-storage: serde_json named on the durable path (crates/cloud/src/storage/)'; exit 1; }
	@! for f in $$(find crates/cloud/src/storage -name '*.rs' \
			-not -name crash_points.rs); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" \
			| grep -n 'Request::\(to\|from\)_bytes\|request\.to_bytes(\|\.wire_bytes(' \
			| sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-storage: request JSON on the durable path (crates/cloud/src/storage/); log a typed WalOp'; exit 1; }
	@echo 'lint-storage: ok'

# The observability gate: golden determinism tests (same seed => byte-
# identical metrics snapshot and span JSONL, at any thread count; obs
# on == obs off to the last bit), plus the overhead bench, which writes
# BENCH_obs.json and exits nonzero if instrumentation perturbs results.
obs:
	cargo test --release -q -p pmware-bench --test obs_golden
	cargo run --release -p pmware-bench --bin obs_overhead
