//! `equitruss` refuses an option it does not know — usage text, exit 2 —
//! instead of swallowing the next token as that option's value (which used
//! to turn `build g.txt --numa -o x.etidx` into a build with no `-o`).

use std::process::Command;

fn equitruss(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_equitruss"))
        .args(args)
        .output()
        .expect("spawn equitruss");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn removed_flags_fail_loudly() {
    for flag in [
        "--numa",
        "--steal",
        "--no-steal",
        "--support-kernel",
        "--engine",
        "--cache",
        "--no-cache",
    ] {
        let (code, stderr) = equitruss(&["build", "no-such-graph.txt", flag, "-o", "x.etidx"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{flag}: {stderr}");
    }
}

#[test]
fn known_flags_still_reach_the_command() {
    // `--mmap` parses; the command then fails on the missing file (exit 1),
    // not on the command line (exit 2).
    let (code, stderr) = equitruss(&["stats", "no-such-graph.txt", "--mmap"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot load"), "{stderr}");
}
