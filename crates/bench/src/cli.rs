//! The one command line: `bench <section> [part] [--scale small|medium|full]`.
//! Anything else exits 2 with [`USAGE`].

use crate::{ablation, coalesce, fig6, memory, recover, shard_sweep, table2, Scale};
use std::io;
use std::process::ExitCode;

pub const USAGE: &str = "usage: bench <fig6 [all|a|b|c] | table2 [all|insdel|util|knapsack|astar] \
                         | ablation | memory | shard_sweep | coalesce | recover> \
                         [--scale small|medium|full]";

type Run = fn(&str, Scale) -> io::Result<()>;

/// Each section, the parts it accepts, and how it runs one. Fig. 6a and
/// 6b come from one sweep, so `a` and `b` both run it.
const SECTIONS: [(&str, &[&str], Run); 7] = [
    ("fig6", &["all", "a", "b", "c"], fig6::run),
    ("table2", &["all", "insdel", "util", "knapsack", "astar"], table2::run),
    ("ablation", &[], |_, scale| ablation::run(scale)),
    ("memory", &[], |_, scale| memory::run(scale)),
    ("shard_sweep", &[], |_, scale| shard_sweep::run(scale)),
    ("coalesce", &[], |_, scale| coalesce::run(scale)),
    ("recover", &[], |_, scale| recover::run(scale)),
];

#[derive(Debug)]
struct Command {
    section: &'static str,
    /// `None` runs every part.
    part: Option<&'static str>,
    scale: Scale,
    run: Run,
}

/// Parse the arguments after the program name; the scale defaults to
/// medium.
fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let name = it.next().ok_or("no section given")?;
    let &(section, parts, run) =
        SECTIONS.iter().find(|s| s.0 == name).ok_or_else(|| format!("unknown section {name}"))?;
    let mut cmd = Command { section, part: None, scale: Scale::Medium, run };
    while let Some(arg) = it.next() {
        if arg == "--scale" {
            let v = it.next().ok_or("--scale needs a value")?;
            cmd.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale {v}"))?;
        } else if let (None, Some(&part)) = (cmd.part, parts.iter().find(|&p| p == arg)) {
            cmd.part = Some(part);
        } else {
            return Err(format!("unexpected argument {arg}"));
        }
    }
    Ok(cmd)
}

/// Run the command `argv` names: exit 2 on a malformed command, 1 when
/// the results cannot be written.
pub fn main(argv: &[String]) -> ExitCode {
    let cmd = match parse(argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (cmd.run)(cmd.part.unwrap_or("all"), cmd.scale) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench {}: writing results: {e}", cmd.section);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_section_and_part_parses() {
        let parsed = |line: String| {
            let cmd = parse(&args(&line)).unwrap();
            (cmd.section, cmd.part, cmd.scale)
        };
        for (name, parts, _) in SECTIONS {
            assert!(USAGE.contains(name), "{name} missing from the usage line");
            assert_eq!(parsed(name.to_string()), (name, None, Scale::Medium));
            for scale in ["small", "medium", "full"] {
                let (_, _, parsed_scale) = parsed(format!("{name} --scale {scale}"));
                assert_eq!(Some(parsed_scale), Scale::parse(scale));
            }
            for &part in parts {
                assert!(USAGE.contains(part), "{name} {part} missing from the usage line");
                let cmd = (name, Some(part), Scale::Small);
                assert_eq!(parsed(format!("{name} {part} --scale small")), cmd);
                assert_eq!(parsed(format!("{name} --scale small {part}")), cmd);
            }
        }
    }

    #[test]
    fn malformed_commands_are_errors() {
        for line in [
            "",
            "nosuch",
            "fig6 x",
            "fig6 --scale",
            "fig6 a c",
            "fig6 all all",
            "memory --scale tiny",
            "ablation --bogus",
            "ablation all",
            "table2 insdel --threads 4",
            "shard_sweep --batch 64",
            "coalesce --k 8",
            "recover small",
            "--scale small",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} parsed");
        }
    }
}
