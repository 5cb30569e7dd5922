"""The `mtcrit` command line, read directly.

    mtcrit [-h | --help | --version]
    mtcrit COMMAND [--config FILE] [--out DIR] [-h]     (verify: also --seed N)

`parse_args` reads this small, fixed grammar (README, "Command line")
against the table of subcommands that `mtcrit.cli` owns, so this module
names none of them.  argparse read the same grammar at a cost of about
6 ms and three stdlib modules a run; usage errors and help keep its
wording, but an option is spelt out in full: no abbreviation stands for
it.  The reader is a module apart from `mtcrit.cli`: compiling a module
from source (with no cached bytecode) takes memory in proportion to its
size, and inside `cli.py` the reader raised the peak resident memory of
a rectangle run by about 0.1 MB.
"""

from __future__ import annotations

import sys

from . import __version__

_DESCRIPTION = "Existence criterion toolkit for perturbed Moser-Trudinger extremals"


def _looks_like_option(word: str) -> bool:
    """argparse's reading of a word that names no option: an option if it
    is '-' and more, unless it holds a space or is a negative number such
    as -3 or -.5.  Such a word cannot be an option's value."""
    if len(word) < 2 or word[0] != "-" or " " in word:
        return False
    whole, dot, frac = word[1:].partition(".")
    if dot:
        return not ((whole == "" or whole.isdecimal()) and frac.isdecimal())
    return not whole.isdecimal()


def _usage(commands: dict, command: str | None) -> str:
    if command is None:
        return f"usage: mtcrit [-h] [--version] {{{','.join(commands)}}} ..."
    options = "".join(f" [{name} {name[2:].upper()}]" for name in commands[command][2])
    return f"usage: mtcrit {command} [-h]{options}"


def _help(commands: dict, command: str | None) -> str:
    """The text of `mtcrit -h` (command None) or of `mtcrit COMMAND -h`,
    laid out as argparse laid it out."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        options.append(("--version", "show program's version number and exit"))
        listed = "".join(f"    {name:<20}{help_}\n" for name, (_, help_, _) in commands.items())
        head = (f"{_DESCRIPTION}\n\npositional arguments:\n"
                f"  {{{','.join(commands)}}}\n{listed}\n")
        width = 20
    else:
        options += [(f"{name} {name[2:].upper()}", help_)
                    for name, (_, help_) in commands[command][2].items()]
        head = ""
        width = max(len(left) for left, _ in options)
    rows = "".join(f"  {left:<{width}}  {help_}\n" for left, help_ in options)
    return f"{_usage(commands, command)}\n\n{head}options:\n{rows}"


def _fail(commands: dict, command: str | None, message: str):
    """Print the usage and the error to stderr, as argparse printed them,
    and exit 2."""
    prog = "mtcrit" if command is None else f"mtcrit {command}"
    sys.stderr.write(f"{_usage(commands, command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _exit_on_flag(commands: dict, command: str | None, word: str) -> None:
    """After -h or --help print the help of command (of mtcrit itself if
    None), and after --version before any command print the version, then
    exit 0; after any other word do nothing.  These flags take no value:
    -h=X is a usage error."""
    flags = {"-h": "-h/--help", "--help": "-h/--help"}
    if command is None:
        flags["--version"] = "--version"
    name, eq, value = word.partition("=")
    if name not in flags:
        return
    if eq:
        _fail(commands, command, f"argument {flags[name]}: ignored explicit argument {value!r}")
    sys.stdout.write(f"mtcrit {__version__}\n" if name == "--version"
                     else _help(commands, command))
    raise SystemExit(0)


def parse_args(argv, commands: dict) -> tuple[str, dict]:
    """The subcommand that argv names and the keyword arguments of its
    function, one for each of its options.

    `commands` maps each subcommand to (its function, its line in
    `mtcrit -h`, its options), and the options map "--name" to (the
    default, the line in `mtcrit COMMAND -h`); an option whose default is
    an int takes an int.  An option's value is the next word or follows
    '='; the last one given wins.  -h and --version print to stdout and
    exit 0; a usage error prints the usage and the error to stderr and
    exits 2.
    """
    unrecognized = []
    words = iter(argv)
    for command in words:
        _exit_on_flag(commands, None, command)
        if not _looks_like_option(command):
            break
        unrecognized.append(command)
    else:
        _fail(commands, None, "the following arguments are required: command")
    if command not in commands:
        _fail(commands, None, f"argument command: invalid choice: {command!r} "
                              f"(choose from {', '.join(map(repr, commands))})")
    options = commands[command][2]
    values = {name[2:]: default for name, (default, _) in options.items()}
    for word in words:
        _exit_on_flag(commands, command, word)
        name, eq, value = word.partition("=")
        if name not in options:
            unrecognized.append(word)
            continue
        if not eq:
            value = next(words, None)
            if value is None or _looks_like_option(value):
                _fail(commands, command, f"argument {name}: expected one argument")
        if isinstance(options[name][0], int):
            try:
                value = int(value)
            except ValueError:
                _fail(commands, command, f"argument {name}: invalid int value: {value!r}")
        values[name[2:]] = value
    if unrecognized:
        _fail(commands, None, f"unrecognized arguments: {' '.join(unrecognized)}")
    return command, values
