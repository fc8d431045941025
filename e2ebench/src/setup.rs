//! Set-up timing for merge_large and sort_keyed, in fresh processes.
//!
//! Their set-up runs from the first call into the program, which is the
//! process's first pool use, through a fixed count of warm-up ops. Only a
//! fresh process has a first pool use, so each set-up runs this program
//! again as a child (`--setup-child <warm-up ops>`). The child reads the
//! run's inputs as raw words on its standard input, so it does not repeat
//! the input generation. It computes its own oracle, allocates and first
//! touches its output, times the set-up, checks every warm-up op, and
//! prints one line: `setup <seconds> <attempted> <failed>`.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::{Command, Stdio};

use crate::{merge_large, sort_keyed, Checker, Opts, Workload};

/// The flag that makes the program a set-up child.
pub const CHILD_FLAG: &str = "--setup-child";

/// Runs `opts.scale.fresh_setups` set-ups of `opts.workload`, one after the
/// other, each in a fresh child fed `inputs`; returns their seconds. Each
/// child's checked ops count in `checker`; a child that does not report
/// counts as one failed op.
pub fn in_fresh_processes(opts: &Opts, inputs: &[&[u32]], checker: &Checker) -> Vec<f64> {
    (0..opts.scale.fresh_setups)
        .filter_map(|_| {
            let done = one(opts, inputs);
            match done {
                Some((secs, attempted, failed)) => {
                    checker.absorb(attempted, failed);
                    Some(secs)
                }
                None => {
                    checker.record(false);
                    None
                }
            }
        })
        .collect()
}

/// One set-up child: `(seconds, attempted, failed)`, or `None` when it did
/// not run to the end.
fn one(opts: &Opts, inputs: &[&[u32]]) -> Option<(f64, u64, u64)> {
    let mut child = Command::new(&opts.exe)
        .args(["--workload", opts.workload.name()])
        .args([CHILD_FLAG, &opts.scale.warmup_ops.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a set-up process");
    let mut stdin = BufWriter::new(child.stdin.take().expect("piped stdin"));
    let sent = inputs.iter().try_for_each(|v| write_words(&mut stdin, v));
    // Dropping the writer closes the pipe: the child sees the end of the
    // inputs.
    let sent = sent.and_then(|_| stdin.flush());
    drop(stdin);
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out);
    let status = child.wait().expect("wait for a set-up process");
    if sent.is_err() || read.is_err() || !status.success() {
        return None;
    }
    parse_line(out.lines().last()?)
}

fn parse_line(line: &str) -> Option<(f64, u64, u64)> {
    let mut f = line.strip_prefix("setup ")?.split(' ');
    let secs = f.next()?.parse().ok()?;
    let attempted = f.next()?.parse().ok()?;
    let failed = f.next()?.parse().ok()?;
    Some((secs, attempted, failed))
}

/// The child's side: reads the inputs from standard input, runs the
/// workload's set-up with `warmup_ops` ops, and prints its line.
pub fn child(workload: Workload, warmup_ops: usize) -> io::Result<()> {
    let mut stdin = BufReader::new(io::stdin().lock());
    let mut inputs = Vec::new();
    while let Some(v) = read_words(&mut stdin)? {
        inputs.push(v);
    }
    let checker = Checker::new(false);
    let secs = match workload {
        Workload::MergeLarge => merge_large::set_up(inputs, warmup_ops, &checker),
        Workload::SortKeyed => sort_keyed::set_up(inputs, warmup_ops, &checker),
        w => {
            return Err(io::Error::other(format!(
                "{} has no set-up child",
                w.name()
            )))
        }
    };
    println!("setup {secs} {} {}", checker.attempted(), checker.failed());
    Ok(())
}

/// Writes `v` as its length (u64) and its words, little-endian.
fn write_words(w: &mut impl Write, v: &[u32]) -> io::Result<()> {
    w.write_all(&(v.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(1 << 16);
    for chunk in v.chunks(1 << 14) {
        buf.clear();
        buf.extend(chunk.iter().flat_map(|x| x.to_le_bytes()));
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads one vector [`write_words`] wrote; `None` at the end of the input.
fn read_words(r: &mut impl Read) -> io::Result<Option<Vec<u32>>> {
    let mut len = [0u8; 8];
    match r.read_exact(&mut len) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other?,
    }
    let n = usize::try_from(u64::from_le_bytes(len)).map_err(io::Error::other)?;
    let mut v = Vec::with_capacity(n);
    let mut buf = vec![0u8; 1 << 16];
    while v.len() < n {
        let bytes = &mut buf[..((n - v.len()) * 4).min(1 << 16)];
        r.read_exact(bytes)?;
        v.extend(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
    Ok(Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let vs = [vec![], vec![7u32], (0..40_000u32).map(|x| x * 31).collect()];
        let mut bytes = Vec::new();
        for v in &vs {
            write_words(&mut bytes, v).unwrap();
        }
        let mut r = &bytes[..];
        for v in &vs {
            assert_eq!(read_words(&mut r).unwrap().as_ref(), Some(v));
        }
        assert_eq!(read_words(&mut r).unwrap(), None);
    }

    #[test]
    fn parses_the_child_line() {
        assert_eq!(parse_line("setup 0.25 2 0"), Some((0.25, 2, 0)));
        assert_eq!(parse_line("setup x 2 0"), None);
        assert_eq!(parse_line("nothing"), None);
    }
}
