"""SHA-256 pins of ``oqw`` output for all six scenarios.

Each command runs ``main`` in process. Its exit status and the SHA-256
of its stdout must equal the recorded pair, so a change of one output
bit in any scenario fails here, and not only in the three benchmark
configurations of ``bench/digests.json``. The digests hold for the
numpy build that ``bench/digests.json`` names (numpy 2.4.6 with
OpenBLAS 0.3.31); stderr must stay empty on exit 0.

To re-record after an intended output change, run this file as a
script from the repository root and paste its table into ``DIGESTS``:

    PYTHONPATH=src python tests/test_digests.py
"""

import contextlib
import hashlib
import io
import shlex

import pytest

from oqwalk.cli import main

# one command a line, in shell quoting; a line starting with # is a comment
COMMANDS = [line for line in """
# line
run --scenario line --set theta_cos=0.8 --set window=8 --steps 6
run --scenario line --set theta_cos=0.8 --set window=8 --steps 6 --record-every 4 --format json
run --scenario line --set theta_cos=0.8 --steps 20 --record-every 7
steady --scenario line --set theta_cos=0.8 --set window=4 --set max_iter=50
validate --scenario line --set theta_cos=0.8 --set window=8
# gate
run --scenario gate --set gate=H --set p=0.3 --set psi0='"+"' --steps 4
run --scenario gate --set gate=X --set p=0.5 --steps 5 --format json
steady --scenario gate --set gate=X --set p=0
steady --scenario gate --set gate=H --set p=1e-16
steady --scenario gate --set gate=H --set p=0.5 --set psi0='"+"'
steady --scenario gate --set gate=X --set p=1
steady --scenario gate --set gate=CNOT --set p=0.5 --set psi0='"10"'
steady --scenario gate --set gate=S --set sqrt_p=0.8 --set psi0='"-"'
validate --scenario gate --set gate=CNOT --set p=0.3
# state_prep
run --scenario state_prep --set alpha=0.4 --set beta=1.9 --set q=0.3 --steps 6
run --scenario state_prep --set alpha=0.4 --set beta=1.9 --set q=0.3 --steps 6 --format json
steady --scenario state_prep --set alpha=1.1 --set beta=5.0 --set q=0.7
steady --scenario state_prep
validate --scenario state_prep --set alpha=0.4 --set beta=1.9 --set q=0.3
# bell
run --scenario bell --set start_node='"UL"' --steps 3
run --scenario bell --set start_node='"UR"' --steps 2
run --scenario bell --set start_node='"DL"' --steps 2 --format json
run --scenario bell --set start_node='"DR"' --steps 3 --format json
steady --scenario bell --set start_node='"UL"'
steady --scenario bell --set start_node='"UR"'
steady --scenario bell --set start_node='"DL"'
steady --scenario bell --set start_node='"DR"'
validate --scenario bell
# transport
run --scenario transport --set N=6 --set sqrt_p=0.8 --steps 8
run --scenario transport --set N=6 --set p=0.36 --set psi1='"0"' --set psi2='"1"' --steps 8 --format json
steady --scenario transport --set N=20 --set p=0.5
steady --scenario transport --set N=50 --set sqrt_p=0.8
validate --scenario transport --set N=12 --set sqrt_p=0.6
# dqc
run --scenario dqc --set omega=0.5 --set T=3 --set unitaries='["H", "X", "S"]' --set psi0='"+"' --steps 5
run --scenario dqc --set omega=0.6 --set T=4 --steps 5 --format json
steady --scenario dqc --set omega=0.5 --set T=6
steady --scenario dqc --set omega=0.7 --set T=10
steady --scenario dqc --set omega=0.3 --set T=5 --set unitaries='["H", "T", "X", "S", "H"]'
validate --scenario dqc --set omega=0.8 --set T=8
# many edges per distinct gate: the benchmark's seed-0 gate list, the
# default gates at T = 40, a d = 3 chain of three repeated gates
steady --scenario dqc --set omega=0.5 --set T=20 --set unitaries='["Z", "T", "Z", "T", "H", "S", "X", "T", "T", "Z", "Z", "S", "T", "S", "X", "I", "X", "I", "S", "I"]'
steady --scenario dqc --set omega=0.8 --set T=40
run --scenario dqc --set omega=0.6 --set T=8 --set unitaries='[[[0,0,1],[1,0,0],[0,1,0]], [[0.6,0.8,0],[-0.8,0.6,0],[0,0,1]], [[0,0,1],[1,0,0],[0,1,0]], [[1,0,0],[0,[0,1],0],[0,0,[0.6,0.8]]], [[0.6,0.8,0],[-0.8,0.6,0],[0,0,1]], [[0,0,1],[1,0,0],[0,1,0]], [[0,0,1],[1,0,0],[0,1,0]], [[1,0,0],[0,[0,1],0],[0,0,[0.6,0.8]]]]' --set psi0='[0.6, 0, 0.8]' --steps 30
run --scenario transport --set N=50 --set sqrt_p=0.8 --steps 60
# the benchmark's seed-1 and seed-11 gate lists: seed 11's full plan cuts
# long groups into pieces
steady --scenario dqc --set omega=0.5 --set T=20 --set unitaries='["I", "X", "Z", "Z", "Z", "H", "S", "H", "T", "Z", "T", "T", "Y", "T", "Z", "I", "H", "T", "H", "Z"]'
steady --scenario dqc --set omega=0.5 --set T=20 --set unitaries='["T", "Z", "X", "Z", "Z", "T", "T", "X", "Z", "X", "I", "I", "Z", "X", "T", "Y", "X", "Z", "I", "H"]'
# large specs: an 80002-edge line walk validated and run (its partial
# steps mark reached targets in a 40001-node mask), a 20000-node
# transport report rejected by a tol below its residuals, and a
# 20001-register chain of one shared gate object
validate --scenario line --set theta_cos=0.8 --set window=20000
run --scenario line --set theta_cos=0.8 --set window=20000 --steps 300 --record-every 100
validate --scenario transport --set N=20000 --set sqrt_p=0.6 --set tol=2e-16
validate --scenario dqc --set omega=0.5 --set T=20000
""".splitlines() if line and not line.startswith("#")]

# command -> (exit status, SHA-256 of stdout), recorded with numpy 2.4.6
DIGESTS = {
    'run --scenario line --set theta_cos=0.8 --set window=8 --steps 6':
        (0, '4cd6478fbbdeae8037ea75320524dc916b8e11d1efe152db2df57ebbdeab043c'),
    'run --scenario line --set theta_cos=0.8 --set window=8 --steps 6 --record-every 4 --format json':
        (0, 'e5f3a545d9c01883834c520ff9c539d947fb6ee99392907d245c4158ee8ed6af'),
    'run --scenario line --set theta_cos=0.8 --steps 20 --record-every 7':
        (0, 'f9733a7514b319f7da8e48c8cf5ad673d404c5a8e1527fb850e95fb59c7a628f'),
    'steady --scenario line --set theta_cos=0.8 --set window=4 --set max_iter=50':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'validate --scenario line --set theta_cos=0.8 --set window=8':
        (0, 'e56073ea6c5df727c572b90d35c6800565b06fda7b6676ae08c72409c1d57bbb'),
    'run --scenario gate --set gate=H --set p=0.3 --set psi0=\'"+"\' --steps 4':
        (0, '60a7da54ecb29d2309389fa7b91c09c30dae714fba9cec9962cf0c7ed888a939'),
    'run --scenario gate --set gate=X --set p=0.5 --steps 5 --format json':
        (0, '51666f34471a14c7af1a63d0fb4293e72d7b51f01fad0e0470a02c72d99bec84'),
    'steady --scenario gate --set gate=X --set p=0':
        (0, '09a7550155a40fe662694cb04855f97fe60b6ea70e226b6b4fb2212775633309'),
    'steady --scenario gate --set gate=H --set p=1e-16':
        (0, '7c00dc13e4e7233f644bab21043ffdce09506b72d3ab2cdbc9b3c718775c7b1a'),
    'steady --scenario gate --set gate=H --set p=0.5 --set psi0=\'"+"\'':
        (0, 'f24c4426e45bc49d40beef425ba86a71c3d12ce38d48737a1bacb11ed24455f9'),
    'steady --scenario gate --set gate=X --set p=1':
        (0, '2418f1ba4a6941d11c8766b36724733de470ea5db5a9b105cbb38cae8abdbcc1'),
    'steady --scenario gate --set gate=CNOT --set p=0.5 --set psi0=\'"10"\'':
        (0, 'd18c1d18bebf4dd4735bc5e57b92373b9af4c20c5ff7b3240c3179b539cfa68a'),
    'steady --scenario gate --set gate=S --set sqrt_p=0.8 --set psi0=\'"-"\'':
        (0, '76e5e71d5c18a2bc931e7dc99db67122083df448ec7827af333ba0728f2955ee'),
    'validate --scenario gate --set gate=CNOT --set p=0.3':
        (0, 'b62a60ca7c9759ef708b4ecc129729aec30b6e67abdec7cda2294f3da57b355e'),
    'run --scenario state_prep --set alpha=0.4 --set beta=1.9 --set q=0.3 --steps 6':
        (0, 'ae9b0f335efc63b77626ecb6c735e9a20ae0fd5915c076b2d790b933898b465b'),
    'run --scenario state_prep --set alpha=0.4 --set beta=1.9 --set q=0.3 --steps 6 --format json':
        (0, '559b69ee96fcbe18b552ac38ca9144fc8dc7769521a67412b0c784e5dca927d7'),
    'steady --scenario state_prep --set alpha=1.1 --set beta=5.0 --set q=0.7':
        (0, 'f45c81d7ba4729c7e798f31db62a65009fa6b611177ff57fe2dddbb18e1f137b'),
    'steady --scenario state_prep':
        (0, '17f10953ae5267d51a7661dab2117b0e05fb44396c46ddefae484b6215573767'),
    'validate --scenario state_prep --set alpha=0.4 --set beta=1.9 --set q=0.3':
        (0, '83d9aa75929354512183e04d45bed07ffaf2680de853b2d3bcdeeb0484af28e5'),
    'run --scenario bell --set start_node=\'"UL"\' --steps 3':
        (0, '1d0024f74bef3176c9596260e05b85fea2a331243273ba4c855887249128bfa9'),
    'run --scenario bell --set start_node=\'"UR"\' --steps 2':
        (0, '92f89d93403e102980f72f7efb87f60b9a8bba4bc0533386e0083e80b4d5f375'),
    'run --scenario bell --set start_node=\'"DL"\' --steps 2 --format json':
        (0, '8f8982062aec739919fcdd74eb35809f39fcee02a14374a2464b60241f2d58ee'),
    'run --scenario bell --set start_node=\'"DR"\' --steps 3 --format json':
        (0, '18d0d38047a5af6ed98e374bcb234f77cfc4545a6e49e447638662cf809e1201'),
    'steady --scenario bell --set start_node=\'"UL"\'':
        (0, 'eaf149401d34a83ffed09d9c962ba0e43ac9fb4f8acb68d576df05a90549e20b'),
    'steady --scenario bell --set start_node=\'"UR"\'':
        (0, 'eaf149401d34a83ffed09d9c962ba0e43ac9fb4f8acb68d576df05a90549e20b'),
    'steady --scenario bell --set start_node=\'"DL"\'':
        (0, 'eaf149401d34a83ffed09d9c962ba0e43ac9fb4f8acb68d576df05a90549e20b'),
    'steady --scenario bell --set start_node=\'"DR"\'':
        (0, 'eaf149401d34a83ffed09d9c962ba0e43ac9fb4f8acb68d576df05a90549e20b'),
    'validate --scenario bell':
        (0, '9fc448200277488ed86db9be93cada9cb9ff80bb5f3ffcc887c24f7019e19059'),
    'run --scenario transport --set N=6 --set sqrt_p=0.8 --steps 8':
        (0, '68830976cfb05469891c0c14134cf23aa12536fb3f94e45c8f8c7d012cd7579d'),
    'run --scenario transport --set N=6 --set p=0.36 --set psi1=\'"0"\' --set psi2=\'"1"\' --steps 8 --format json':
        (0, 'd658ed531ab031fc0aaa95c24e0b7433db9f7fe8b77862e1f4019d8636a678c7'),
    'steady --scenario transport --set N=20 --set p=0.5':
        (0, '9982f97cc6626c252535c65fc2f46d64a471643782adfc6b5dd905dd5bbdf6ce'),
    'steady --scenario transport --set N=50 --set sqrt_p=0.8':
        (0, '59c7fc68baf560e2f2a5871077594c59b1515aab2852d108c4a1aed8e8a11f84'),
    'validate --scenario transport --set N=12 --set sqrt_p=0.6':
        (0, 'ead96d224a06786cf00cc50e05d2c281533cbc2ab2fdd5f90df75d79f55a0433'),
    'run --scenario dqc --set omega=0.5 --set T=3 --set unitaries=\'["H", "X", "S"]\' --set psi0=\'"+"\' --steps 5':
        (0, 'b0aafb1ec3ab6b96e2bdb098ea960c44f77e6323fd3211088068794553b8181e'),
    'run --scenario dqc --set omega=0.6 --set T=4 --steps 5 --format json':
        (0, 'aca551129c706813c88546c541b8efdcb15173170ca44b026b1b331dec7cea85'),
    'steady --scenario dqc --set omega=0.5 --set T=6':
        (0, '5c86ab3c960aa96fbc4ed61dc658e6c88bae2e69ea07f67adc05c9302c21732f'),
    'steady --scenario dqc --set omega=0.7 --set T=10':
        (0, 'f6fe1a05288552bebc330f2b269e81d196e427caefd11f26b7d037fcaf900d6e'),
    'steady --scenario dqc --set omega=0.3 --set T=5 --set unitaries=\'["H", "T", "X", "S", "H"]\'':
        (0, '7c9f6ef09b5acdf6a7f9b0d2080799ae184ff05f0b15796dd26bda910c354672'),
    'validate --scenario dqc --set omega=0.8 --set T=8':
        (0, '527f315f3c3074f7e479200f29be9f6fee91f2a4ccf71074832445c3202bafbc'),
    'steady --scenario dqc --set omega=0.5 --set T=20 --set unitaries=\'["Z", "T", "Z", "T", "H", "S", "X", "T", "T", "Z", "Z", "S", "T", "S", "X", "I", "X", "I", "S", "I"]\'':
        (0, '7b3ffb7b3a3a156df0e1dff0315e08fd83a43bb883b8c99ac8a3a3ff0456b541'),
    'steady --scenario dqc --set omega=0.8 --set T=40':
        (0, '811efb0cba4ddc4ae6044861aeea67c5d9816b31e8c6a22de81ba6cb2ad665c2'),
    "run --scenario dqc --set omega=0.6 --set T=8 --set unitaries='[[[0,0,1],[1,0,0],[0,1,0]], [[0.6,0.8,0],[-0.8,0.6,0],[0,0,1]], [[0,0,1],[1,0,0],[0,1,0]], [[1,0,0],[0,[0,1],0],[0,0,[0.6,0.8]]], [[0.6,0.8,0],[-0.8,0.6,0],[0,0,1]], [[0,0,1],[1,0,0],[0,1,0]], [[0,0,1],[1,0,0],[0,1,0]], [[1,0,0],[0,[0,1],0],[0,0,[0.6,0.8]]]]' --set psi0='[0.6, 0, 0.8]' --steps 30":
        (0, '096bec846961b3e5f9ae006c399e008df206507311c8a1cc22e747e219716578'),
    'run --scenario transport --set N=50 --set sqrt_p=0.8 --steps 60':
        (0, '2c69589326f346f7baf11b16a87f7797a8b1a77256bb953c0d6dc038e2c65a6e'),
    'steady --scenario dqc --set omega=0.5 --set T=20 --set unitaries=\'["I", "X", "Z", "Z", "Z", "H", "S", "H", "T", "Z", "T", "T", "Y", "T", "Z", "I", "H", "T", "H", "Z"]\'':
        (0, '09a39607c4eea0d7aeed840e242df6daee23220d6504521936b28dfdb1c69e5f'),
    'steady --scenario dqc --set omega=0.5 --set T=20 --set unitaries=\'["T", "Z", "X", "Z", "Z", "T", "T", "X", "Z", "X", "I", "I", "Z", "X", "T", "Y", "X", "Z", "I", "H"]\'':
        (0, 'f68791ad83f2b778ea0227522608593938801d4d2823494ada7f61f0b6101d78'),
    'validate --scenario line --set theta_cos=0.8 --set window=20000':
        (0, 'fcedfb09482d278a83e82140d92a80ed8a19f3ef1f8d39abd3f577af3591c836'),
    'run --scenario line --set theta_cos=0.8 --set window=20000 --steps 300 --record-every 100':
        (0, 'f0c2741b994b21453e8bfd152315002cdd645badc36362d4722ab35a4d960c30'),
    'validate --scenario transport --set N=20000 --set sqrt_p=0.6 --set tol=2e-16':
        (1, '70d032326690349c6311eb225772254cf040d591f268c2e7980818c65c09b1f3'),
    'validate --scenario dqc --set omega=0.5 --set T=20000':
        (0, 'e6cc2feea2e499bca925ffef18b92481e6af39db9ba348ab1eb200d7e3c7fae6'),
}


def _run(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(shlex.split(command))
    return status, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_command_is_pinned():
    assert set(DIGESTS) == set(COMMANDS)
    scenarios = {shlex.split(c)[2] for c in COMMANDS}
    assert scenarios == {"line", "gate", "state_prep", "bell", "transport", "dqc"}


@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes_are_pinned(command):
    status, stdout, stderr = _run(command)
    assert (status, _digest(stdout)) == DIGESTS[command]
    if status == 0:
        assert stderr == ""


if __name__ == "__main__":
    print("DIGESTS = {")
    for command in COMMANDS:
        status, stdout, _ = _run(command)
        print(f"    {command!r}:\n        ({status}, {_digest(stdout)!r}),")
    print("}")
