//! Experiment harnesses for the PMWare reproduction.
//!
//! [`paper`] regenerates the paper's quantitative artefacts (see
//! `DESIGN.md` §4 for the experiment index) and the `paper` binary prints
//! them; `fig5_map` draws Figure 5b, [`chaos`] is the `chaos_soak`
//! report, the other binaries under `src/bin` run the soaks and
//! throughput studies, and the criterion benches under `benches/`
//! measure micro-performance.
//!
//! | `paper` table | Paper artefact |
//! |---|---|
//! | `fig1` | Figure 1 — battery duration per interface × period |
//! | `fig2` | Figure 2 — app taxonomy by granularity |
//! | `intro-wifi` | §1 item 4 — WiFi-covered fraction of a day by region |
//! | `dep` | §4 — 16 participants × 2 weeks, all statistics |
//! | `abl-trig` | §2.2.2 — triggered sensing vs alternatives |
//! | `abl-red` | §1 item 3 — shared PMS vs isolated pipelines |
//! | `abl-gca` | GCA parameter sensitivity |
//! | `route-acc` | §2.2.2 — the two route-tracking modes |
//! | `fig1-emp` | Figure 1 cross-check on the simulated phone |
//! | `det-lat` | §2.4 — arrival/departure detection latency |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod chaos;
pub mod deployment;
pub mod paper;
pub mod parallel;
