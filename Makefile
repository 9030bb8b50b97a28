# Convenience targets for the PMWare reproduction workspace.

.PHONY: verify build test clippy fmt chaos bench bench-admission bench-check bench-gca bench-golden bench-smoke bench-wire bench-latency bench-storage lint-args lint-counters lint-deps lint-hash lint-wire lint-latency lint-storage loc obs test-storage

# The full pre-merge gate: release build, the whole test suite, a
# warning-free clippy pass over every target in the workspace, a
# formatting check, the chaos gate (fault-injection matrix + soak), the
# observability gate (byte-identical golden exports + zero-perturbation
# overhead bench), a tiny-config throughput smoke run that fails if parallel and
# sequential studies ever diverge, the wire lint that keeps untyped
# JSON from creeping back onto the hot path, the hash lint that keeps
# SipHash off the GCA absorb path, the flag-parser lint that keeps
# every binary on the one parser that refuses unknown flags, the
# counter lint that keeps registry counters from being set outside
# checkpoint restore, the
# dependency lint that fails on a manifest entry no file names, the
# wall-clock lint that keeps real time out of simulation code, and the
# latency soak with its
# built-in shed/convergence gates, and the storage gate (durable
# crash-recovery goldens, the residency lint, and the RSS/hydration/
# recovery soak with its built-in capped-below-uncapped assertion), the
# golden-bench gate (the sim-time BENCH_*.json reports regenerate
# byte-identical), and the benchmark check (perfbench still builds and
# its smoke test passes).
verify: build test clippy fmt lint-args lint-counters lint-deps lint-hash lint-wire lint-latency lint-storage chaos obs test-storage bench-smoke bench-latency bench-storage bench-golden bench-check

build:
	cargo build --release --workspace

test:
	cargo test -q --workspace

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

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

# Tiny-config cohort throughput smoke: one quick pass over the full
# thread ladder. The binary asserts every timed run equals the
# sequential reference bit for bit, so this exits nonzero on any
# parallel-vs-sequential divergence. Runs in a scratch directory so the
# checked-in BENCH_cohort.json (full-size numbers) is never clobbered.
bench-smoke:
	cargo build --quiet --release -p pmware-bench --bin cohort_throughput
	tmp=$$(mktemp -d) && cd $$tmp && \
		$(CURDIR)/target/release/cohort_throughput --participants 2 --days 2 --repeats 1 && \
		rm -rf $$tmp

# Per-endpoint cost of the typed in-process path vs the marshalled JSON
# wire path; writes BENCH_wire.json in the repo root.
bench-wire:
	cargo run --release -p pmware-bench --bin wire_micro

# The typed-wire-path regression gate: handlers receive typed Payload
# bodies, and the client and the CLI build typed payloads, so none of
# them may mention `json!(` (handlers and CLI: nor `serde_json::Value`).
# `#[cfg(test)]` code in the client and the CLI is exempt — the lint
# strips everything from their `mod tests` down. JSON becomes a Payload
# only at the wire boundary, decoded once by route, so no non-test code
# in crates/*/src may bring back a second body representation: the
# `Payload::Json` escape hatch, a `From<Value> for Payload`, or a
# `.parse::<` on a request or reply body.
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

# The wall-clock lint: the request latency model (DESIGN.md §5j) is
# sim-time only, so no simulation code may read a real clock. The only
# sanctioned wall-clock readers are the throughput/overhead bench
# binaries in crates/bench/src/bin, which measure wall time on purpose.
lint-latency:
	@! grep -rn 'std::time::\(Instant\|SystemTime\)' crates \
		--include='*.rs' --exclude-dir=bin \
		|| { echo 'lint-latency: wall-clock time crept into simulation code'; exit 1; }
	@echo 'lint-latency: ok'

# The latency soak: request quantiles vs a doubling offered-load
# ladder, max users per instance at a fixed p99 SLO, and the
# flash-crowd arm (must shed, must converge to the unshedded
# baseline's exact state); writes BENCH_latency.json in the repo root.
# Flags: --seed, --reqs, --max-users, --slo-p99-ms, --flash-users,
# --shed-depth.
bench-latency:
	cargo run --release -p pmware-bench --bin latency_soak

# Admission-control study: a throttled cohort with and without the
# server's retry-after hint against the unthrottled baseline; writes
# BENCH_admission.json in the repo root. Flags: --participants, --days,
# --seed, --burst, --refill-s.
bench-admission:
	cargo run --release -p pmware-bench --bin rate_limit_study

# The golden-bench gate: the chaos, latency and admission reports are
# pure sim-time outputs, so regenerating them must leave the checked-in
# files byte-identical. A drift fails here instead of dirtying the tree.
bench-golden:
	cargo run --release -p pmware-bench --bin chaos_soak
	$(MAKE) bench-latency bench-admission
	git diff --exit-code -- BENCH_chaos.json BENCH_latency.json \
		BENCH_admission.json

# The storage gate: the engine's golden tests — byte-identical durable
# replay after a crash (users parked at the crash included),
# deterministic LRU eviction, and the capped-vs-uncapped proptest
# equivalence — the
# engine's unit tests (snapshot file layout, checksums and generations,
# the binary store codec's bit-exact round trip over generated stores
# and its hostile-bytes cases, park/hydrate fidelity, failed snapshot
# and WAL writes and unreadable snapshots counted, stale-only shard
# rewrites, WAL sequences never reused), the WAL frame codec's (every
# logged route round-trips; truncations are torn, bit flips corrupt,
# random bytes rejected), the WAL crash-point matrix
# (storage::crash_points: every shard cut at every frame boundary
# +-1..3 bytes and bit-flipped in every frame, recovering exactly the
# prefix before the damage), the snapshot crash windows in the same
# module (a .tmp beside generation N, generations N and N+1; each
# recovers byte-identical reads under the pre-crash tokens), damaged
# snapshot files there too (an old-format JSON snapshot, and bit flips
# and cuts in each region of a parked user's file: each counted and
# never hydrated), and the binary GCA-log codec's, plus the durable arm
# of the chaos matrix.
test-storage:
	cargo test --release -q -p pmware-cloud --test storage
	cargo test --release -q -p pmware-cloud --lib -- storage:: wire::
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
# `Arc<Mutex<UserStore>>` of its own. The durable path is binary end to
# end (WAL frames and snapshot files), so no non-test code under
# crates/cloud/src/storage/ may name `serde_json` either: everything
# from a file's `#[cfg(test)]` down is exempt, as is crash_points.rs, a
# module compiled only for tests.
lint-storage:
	@! grep -rn '\.users\.\|Arc::new(Mutex::new(UserStore' crates/cloud/src \
		--include='*.rs' | grep -v 'src/storage/' \
		|| { echo 'lint-storage: UserStore access leaked around the storage engine'; exit 1; }
	@! for f in $$(find crates/cloud/src/storage -name '*.rs' \
			-not -name crash_points.rs); do \
		sed '/^#\[cfg(test)\]/,$$d' "$$f" | grep -n 'serde_json' | sed "s|^|$$f:|"; \
	done | grep . \
		|| { echo 'lint-storage: serde_json named on the durable path (crates/cloud/src/storage/)'; exit 1; }
	@echo 'lint-storage: ok'

# The observability gate: golden determinism tests (same seed => byte-
# identical metrics snapshot and trace JSONL, at any thread count; obs
# on == obs off to the last bit), the latency-model goldens (the model
# annotates, never perturbs; span/histogram exports byte-stable), plus
# the overhead bench, which writes BENCH_obs.json and exits nonzero if
# instrumentation perturbs results.
obs:
	cargo test --release -q -p pmware-bench --test obs_golden --test latency_matrix
	cargo run --release -p pmware-bench --bin obs_overhead
