//! Command-line flags for every front end of the flow: `fbist` and the
//! paper-artefact binaries. Each lists the flags it accepts in tables and
//! checks its arguments against them before it runs, so an unknown flag,
//! a repeated flag or a flag missing its value is a usage error instead
//! of being ignored.

/// A flag and whether it takes a value.
pub type Flag = (&'static str, bool);

/// Rejects, naming the flag and `cmd`, the first `--flag` that no table
/// of `tables` lists, that repeats an earlier flag, or that takes a value
/// but is last or followed by another `--flag`.
///
/// # Example
///
/// ```
/// use reseed_core::flags::{check_flags, Flag};
///
/// const TABLE: &[Flag] = &[("--tau", true), ("--greedy", false)];
/// let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
/// assert!(check_flags("table2", &args("--tau 7 --greedy"), &[TABLE]).is_ok());
/// assert!(check_flags("table2", &args("--tua 7"), &[TABLE]).is_err());
/// assert!(check_flags("table2", &args("--tau 7 --tau 8"), &[TABLE]).is_err());
/// assert!(check_flags("table2", &args("--tau --greedy"), &[TABLE]).is_err());
/// ```
///
/// # Errors
///
/// The message of the first offending flag.
pub fn check_flags(cmd: &str, args: &[String], tables: &[&[Flag]]) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            continue;
        }
        let Some(&(name, takes_value)) = tables
            .iter()
            .copied()
            .flatten()
            .find(|flag| flag.0 == arg.as_str())
        else {
            return Err(format!("unknown flag {arg:?} for `{cmd}`"));
        };
        if seen.contains(&name) {
            return Err(format!("duplicate flag {arg:?} for `{cmd}`"));
        }
        seen.push(name);
        if takes_value && args.next_if(|v| !v.starts_with("--")).is_none() {
            return Err(format!("flag {arg:?} for `{cmd}` expects a value"));
        }
    }
    Ok(())
}

/// The value that follows flag `name` in `args`, if the flag is given.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses the value of flag `name`, or returns `default` when the flag
/// is absent.
///
/// # Errors
///
/// `invalid value for <name>: "<value>"` when the value does not parse.
pub fn parse_num<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v:?}")),
    }
}
