//! Runnable example applications for the PMU EM side-channel library.
//!
//! This library target is intentionally empty — everything lives in
//! the example binaries:
//!
//! | Example | Run with `cargo run --release -p emsc-examples --example …` |
//! |---|---|
//! | `quickstart` | one covert transfer across the air gap |
//! | `exfiltrate_file` | packetised multi-frame exfiltration at 1 m |
//! | `keylogger` | keystroke detection, word grouping, timing analysis |
//! | `through_the_wall` | the Fig. 10 NLoS link with interferers |
//! | `countermeasures` | the §III/§VI mitigation sweep |
//! | `fingerprinting` | website fingerprinting from 2 m |
//! | `spectrum_scan` | locating an unknown laptop's VRM spike |
//! | `link_budget` | effective rate + energy cost per operating point |
//! | `zero_knowledge` | interception with no prior knowledge at all |
//! | `reproduce` | every table and figure of the paper |
//! | `emsc_service` | the supervised capture daemon: E5 soak fleet or a spooled recording |
