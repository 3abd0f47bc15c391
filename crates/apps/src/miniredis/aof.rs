//! Append-only-file encoding of mutating commands.

use crate::kv::{decode_frame, encode_frame, AppError};

use super::store::{read_bytes, write_bytes, Command};

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, AppError> {
    String::from_utf8(read_bytes(buf, pos)?).map_err(|_| AppError::Corrupt("aof utf8".into()))
}

/// Serialises one command (unframed).
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut out = Vec::new();
    match cmd {
        Command::Set(k, v) => {
            out.push(1);
            write_str(&mut out, k);
            write_bytes(&mut out, v);
        }
        Command::Del(k) => {
            out.push(2);
            write_str(&mut out, k);
        }
        Command::HSet(k, f, v) => {
            out.push(3);
            write_str(&mut out, k);
            write_str(&mut out, f);
            write_bytes(&mut out, v);
        }
        Command::HDel(k, f) => {
            out.push(4);
            write_str(&mut out, k);
            write_str(&mut out, f);
        }
        Command::LPush(k, v) => {
            out.push(5);
            write_str(&mut out, k);
            write_bytes(&mut out, v);
        }
        Command::RPush(k, v) => {
            out.push(6);
            write_str(&mut out, k);
            write_bytes(&mut out, v);
        }
        Command::LPop(k) => {
            out.push(7);
            write_str(&mut out, k);
        }
        Command::RPop(k) => {
            out.push(8);
            write_str(&mut out, k);
        }
        Command::SAdd(k, v) => {
            out.push(9);
            write_str(&mut out, k);
            write_bytes(&mut out, v);
        }
        Command::SRem(k, v) => {
            out.push(10);
            write_str(&mut out, k);
            write_bytes(&mut out, v);
        }
        Command::Incr(k) => {
            out.push(11);
            write_str(&mut out, k);
        }
    }
    out
}

/// Decodes one command (unframed).
pub fn decode_command(buf: &[u8]) -> Result<Command, AppError> {
    if buf.is_empty() {
        return Err(AppError::Corrupt("empty aof command".into()));
    }
    let tag = buf[0];
    let mut pos = 1usize;
    let cmd = match tag {
        1 => Command::Set(read_str(buf, &mut pos)?, read_bytes(buf, &mut pos)?),
        2 => Command::Del(read_str(buf, &mut pos)?),
        3 => Command::HSet(
            read_str(buf, &mut pos)?,
            read_str(buf, &mut pos)?,
            read_bytes(buf, &mut pos)?,
        ),
        4 => Command::HDel(read_str(buf, &mut pos)?, read_str(buf, &mut pos)?),
        5 => Command::LPush(read_str(buf, &mut pos)?, read_bytes(buf, &mut pos)?),
        6 => Command::RPush(read_str(buf, &mut pos)?, read_bytes(buf, &mut pos)?),
        7 => Command::LPop(read_str(buf, &mut pos)?),
        8 => Command::RPop(read_str(buf, &mut pos)?),
        9 => Command::SAdd(read_str(buf, &mut pos)?, read_bytes(buf, &mut pos)?),
        10 => Command::SRem(read_str(buf, &mut pos)?, read_bytes(buf, &mut pos)?),
        11 => Command::Incr(read_str(buf, &mut pos)?),
        t => return Err(AppError::Corrupt(format!("aof bad command tag {t}"))),
    };
    Ok(cmd)
}

/// Frames a batch of commands as one AOF append (one frame per batch — the
/// write system call Redis's event loop issues per iteration).
pub fn encode_batch(cmds: &[Command]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(cmds.len() as u32).to_le_bytes());
    for c in cmds {
        let enc = encode_command(c);
        body.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        body.extend_from_slice(&enc);
    }
    encode_frame(&body)
}

/// Replays every intact batch from an AOF image, stopping at the first torn
/// or unwritten frame.
pub fn replay(buf: &[u8]) -> Vec<Command> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while let Ok(Some((body, next))) = decode_frame(buf, offset) {
        let mut pos = 0usize;
        let Ok(count) = body
            .get(0..4)
            .ok_or(())
            .map(|b| u32::from_le_bytes(b.try_into().expect("4")) as usize)
        else {
            break;
        };
        pos += 4;
        let mut ok = true;
        // Reserve no more than the body can hold: a command is at least
        // 5 bytes, its length and its tag.
        let mut batch = Vec::with_capacity(count.min((body.len() - pos) / 5));
        for _ in 0..count {
            if pos + 4 > body.len() {
                ok = false;
                break;
            }
            let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4")) as usize;
            pos += 4;
            if pos + len > body.len() {
                ok = false;
                break;
            }
            match decode_command(&body[pos..pos + len]) {
                Ok(cmd) => batch.push(cmd),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            pos += len;
        }
        if !ok {
            break;
        }
        out.extend(batch);
        offset = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_commands() -> Vec<Command> {
        vec![
            Command::Set("k".into(), b"v".to_vec()),
            Command::Del("k".into()),
            Command::HSet("h".into(), "f".into(), b"hv".to_vec()),
            Command::HDel("h".into(), "f".into()),
            Command::LPush("l".into(), b"a".to_vec()),
            Command::RPush("l".into(), b"b".to_vec()),
            Command::LPop("l".into()),
            Command::RPop("l".into()),
            Command::SAdd("s".into(), b"m".to_vec()),
            Command::SRem("s".into(), b"m".to_vec()),
            Command::Incr("n".into()),
        ]
    }

    #[test]
    fn every_command_roundtrips() {
        for cmd in all_commands() {
            let enc = encode_command(&cmd);
            assert_eq!(decode_command(&enc).unwrap(), cmd);
        }
    }

    #[test]
    fn batch_replay_roundtrips() {
        let cmds = all_commands();
        let mut buf = encode_batch(&cmds[..4]);
        buf.extend(encode_batch(&cmds[4..]));
        assert_eq!(replay(&buf), cmds);
    }

    #[test]
    fn torn_tail_stops_replay() {
        let mut buf = encode_batch(&[Command::Set("a".into(), b"1".to_vec())]);
        let second = encode_batch(&[Command::Set("b".into(), b"2".to_vec())]);
        buf.extend_from_slice(&second[..second.len() - 1]);
        let replayed = replay(&buf);
        assert_eq!(replayed.len(), 1);
    }

    #[test]
    fn zero_padding_is_clean_end() {
        let mut buf = encode_batch(&[Command::Incr("x".into())]);
        buf.extend_from_slice(&[0u8; 64]);
        assert_eq!(replay(&buf).len(), 1);
    }
}
